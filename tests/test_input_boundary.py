"""The input-boundary probe: mutated inputs through ``cli.main``.

Each call must exit 0, 1 or 2 (1 only for ``steiner-check`` on a
non-design, as the README documents), write at most one stderr line and no
traceback, and finish inside an alarm deadline.  A failure here is an input
bug to mend, never a strategy to narrow.
"""

import contextlib
import io
import signal
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolminor import cli
from strategies import mutated_inputs

VERBS = (
    ("convert", "--to", "table"),
    ("convert", "--to", "hypergraph"),
    ("classify",),
    ("gap",),
    ("irreducible",),
    ("graph-classify",),
    ("steiner-check",),
)
DEADLINE_S = 2.0


class Deadline(BaseException):
    """Raised by the alarm; ``cli.main`` catches no BaseException."""


def _expire(signum, frame):
    raise Deadline


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        # '-' reads standard input, here an empty one
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            mock.patch("sys.stdin", io.StringIO()),
        ):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(VERBS), mutated_inputs())
def test_mutated_inputs_exit_cleanly(verb, text):
    # "--" ends the options, so a text that starts with "-" is still the input
    code, err = run_main([*verb, "--", text])
    allowed = {0, 1, 2} if verb == ("steiner-check",) else {0, 2}
    assert code in allowed, (code, err)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err
