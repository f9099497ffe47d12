"""The reference task that run.py scales every measured time by.

It does a fixed amount of each kind of work a huffkit command does: start an
interpreter and import scipy.signal (as ``huffkit.cli`` does), run a direct
integer 2D correlation, and run an interpreted loop.  It uses nothing from
huffkit, so no change to the program can move it; a different Python, numpy
or scipy can, but then it moves for both sides of a comparison alike.
run.py runs it before and after every command and set-up; see NOTES.md.
"""

import numpy as np
from scipy import signal

rng = np.random.default_rng(0)
signal.correlate(rng.integers(0, 256, (160, 160)), rng.integers(-3, 4, (31, 31)), method="direct")
total = 0
for i in range(700_000):
    total += i
