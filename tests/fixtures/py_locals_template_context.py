# IR golden: tests/golden/ir/py_locals_template_context.txt
from flask import request, render_template

def profile():
    name = request.args.get('name')
    email = request.form['email']
    bio = request.form.get('bio')
    theme = request.cookies.get('theme')
    tags = [name, bio]
    lang = request.headers.get('lang')
    return render_template('profile.html', ctx=locals())
