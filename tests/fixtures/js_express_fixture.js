// IR golden: tests/golden/ir/js_express_fixture.txt
import express from 'express';
import { query as runQuery } from './db/pool.js';
const { escape } = require('html-utils');
const app = express();

function readName(req) {
  return req.query['name'];
}

function handler(req, res) {
  const name = readName(req);
  let safe = null;
  if (name) {
    safe = escape(name);
  } else {
    safe = '';
  }
  const opts = { user: safe, raw: [name, 1] };
  res.locals.view = opts;
  runQuery('SELECT ' + safe, { meta: name });
  return res.send(safe);
}
app.get('/user', handler);
