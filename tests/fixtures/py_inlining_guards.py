# IR golden: tests/golden/ir/py_inlining_guards.txt
from flask import request
import os

early = late_helper(request.args['q'])


def level4(v):
    return os.path.join(v)


def level3(v):
    return level4(v)


def level2(v):
    return level3(v)


def level1(v):
    return level2(v)


def countdown(n):
    if n:
        return countdown(n)
    return n


def late_helper(v):
    return v.strip()


def fmt(text, prefix='', suffix=''):
    return prefix + text + suffix


class Handler(object):
    def clean(self, v):
        return v.lower()

    def get(self):
        raw = request.form['name']
        return self.clean(raw)


def view():
    out = level1(request.args.get('a'))
    countdown(out)
    store = {}
    store['key'] = request.cookies.get('c')
    total = (os.getenv('A') + os.getenv('B') + os.getenv('C') + os.getenv('D')
             + os.getenv('E') + os.getenv('F') + os.getenv('G') + os.getenv('H')
             + os.getenv('I') + os.getenv('J'))
    label = fmt(out, suffix=request.args.get('s'), prefix='>')
    os.system(store)
    return total + label
