// IR golden: tests/golden/ir/js_inlining_guards.txt
import { getenv } from 'os';
const path = require('path');
const early = lateHelper(getenv('EARLY'));

function level4(v) {
  return path.join(v);
}

function level3(v) {
  return level4(v);
}

function level2(v) {
  return level3(v);
}

function level1(v) {
  return level2(v);
}

function countdown(n) {
  if (n) {
    return countdown(n);
  }
  return n;
}

function lateHelper(v) {
  return v.trim();
}

function view(req) {
  let later;
  const out = level1(req.query.a);
  countdown(out);
  const store = {};
  store['key'] = req.cookies.c;
  const total = getenv('A') + getenv('B') + getenv('C') + getenv('D') + getenv('E')
    + getenv('F') + getenv('G') + getenv('H') + getenv('I') + getenv('J');
  later = out;
  exec(store, later);
  return total;
}
