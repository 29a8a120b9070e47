"""The CLI under a fuzzer: argv for every subcommand, drawn by hypothesis
and run in-process through cli.main under signal.alarm.  Every run ends
within RUN_BUDGET seconds with exit code 0, 1, 2 or 3 and no traceback.

The explicit examples are inputs that once broke that contract: a census
budget that missed classes (x^2 + 935, x^2 + 987), a unit square root that
stalled (x^2 - 409), a principal cycle walked past its budget
(x^2 - 10000000019), a Picard group built before the index budget tripped
(Z[400i]), a bound too long for str(), verify-suite on an empty corpus,
with negative --conjugations or with --inject-fault on trivial monoids, a
zero basis denominator, an unreadable --config, and h(O_L) counted in
O(|d|) (x^2 - 100000007, x^2 +- 2000000011).

verify-suite is drawn at --max-disc <= 30 and --conjugations <= 2, where
it takes well under a second."""

import contextlib
import io
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderkit import cli

# seconds one run may take; the slowest example, class-monoid of
# x^2 - 2000000011, takes about 2.5 s
RUN_BUDGET = 10


class OverBudget(BaseException):
    """Raised from SIGALRM in a run that passes RUN_BUDGET."""


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv); an exception that
    leaves main is the traceback a user would see, and propagates."""
    def stop(signum, frame):
        raise OverBudget(f"{argv} ran past {RUN_BUDGET} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(RUN_BUDGET)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, out.getvalue(), err.getvalue()


def csv(values):
    return ",".join(map(str, values))


# a malformed token for any value: a usage error or a domain error
JUNK = st.sampled_from(["", "x", "1,,1", "1.5,0,1", "5,0,2", "--", "-",
                       "1/0"])


def or_junk(values):
    """values, or about one time in eight a malformed token (one_of would
    favour its last branch)."""
    return st.tuples(st.booleans(), st.booleans(), st.booleans(), values,
                     JUNK).map(lambda t: t[4] if all(t[:3]) else t[3])


COEFF = st.one_of(st.integers(-60, 60), st.integers(-10 ** 5, 10 ** 5),
                  st.integers(-10 ** 12, 10 ** 12))
QUADRATIC = st.tuples(COEFF, st.integers(-12, 12)).map(
    lambda cb: f"{cb[0]},{cb[1]},1")
POLY = or_junk(st.one_of(
    QUADRATIC, QUADRATIC, QUADRATIC,
    st.lists(st.integers(-9, 9), max_size=3).map(lambda cs: csv(cs + [1]))))
# (1, a + k*theta) spans an order of a quadratic field; other rows may not
BASIS = st.one_of(
    st.none(), st.none(),
    st.tuples(st.integers(-3, 30), st.integers(-2, 40)).map(
        lambda ak: f"1,0;{ak[0]},{ak[1]}"),
    st.tuples(st.lists(st.lists(st.integers(-4, 8), min_size=1,
                                max_size=3).map(csv), min_size=1, max_size=3),
              st.sampled_from(["", "/1", "/2", "/0", "/-2"])).map(
        lambda rd: ";".join(rd[0]) + rd[1]),
    JUNK)
FORMAT = or_junk(st.sampled_from([[], ["--format", "json"],
                                  ["--format", "table"]])).map(
    lambda f: f if isinstance(f, list) else ["--format", f])


def flag(name, value):
    """["--name", value], or [] for a value of None."""
    return [] if value is None else [f"--{name}", str(value)]


@st.composite
def bound_argv(draw):
    argv = ["bound", "--formula", draw(or_junk(st.sampled_from(cli.FORMULAS)))]
    for name in ("g", "nu", "n", "pic", "max-level", "n-f", "h", "l",
                 "d-override"):
        if draw(st.integers(0, 3)) == 0:
            argv += flag(name, draw(or_junk(st.integers(-1, 12))))
    argv += flag("kind", draw(st.one_of(
        st.none(), or_junk(st.sampled_from(["principal_n", "p1_n",
                                            "mordell_a"])))))
    return argv + flag("excluded-primes", draw(st.one_of(
        st.none(), or_junk(st.lists(st.integers(-3, 13), max_size=3).map(
            csv)))))


@st.composite
def order_argv(draw):
    argv = [draw(st.sampled_from(["order-info", "class-monoid"])),
            "--field", draw(POLY)]
    return argv + flag("order-basis", draw(BASIS))


@st.composite
def gamma_argv(draw):
    argv = ["gamma-count", "--gamma-field", draw(POLY),
            "--target-n", str(draw(or_junk(st.one_of(
                st.integers(1, 2), st.integers(-1, 3)))))]
    argv += flag("gamma-basis", draw(BASIS))
    return argv + flag("target-field", draw(st.one_of(
        st.none(), st.none(), st.none(), POLY)))


@st.composite
def verify_argv(draw):
    argv = ["verify-suite", "--max-disc", str(draw(st.integers(-2, 30))),
            "--conjugations", str(draw(st.integers(-1, 2)))]
    argv += flag("max-conductor", draw(st.one_of(st.none(),
                                                 st.integers(-1, 3))))
    return argv + (["--inject-fault"] if draw(st.booleans()) else [])


ARGV = st.one_of(bound_argv(), order_argv(), order_argv(), gamma_argv(),
                 verify_argv())


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


def config_lines():
    """Lines of a --config file: keys of every subcommand, values that
    parse and values that do not, and lines that are not key=value."""
    return st.lists(st.sampled_from([
        "g=2", "nu=x", "kind=p1_n", "kind=other", "format=table",
        "max-disc=12", "conjugations=-1", "inject-fault=yes",
        "target-n=2", "order-basis=1,0;0,2", "no-such=1", "no equals sign",
        "# a comment", ""]), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ARGV, FORMAT, st.one_of(st.none(), st.just("missing"),
                               config_lines()))
@example(["class-monoid", "--field", "935,0,1"], [], None)
@example(["class-monoid", "--field", "987,0,1"], [], None)
@example(["order-info", "--field=-409,0,1"], [], None)
@example(["order-info", "--field=-10000000019,0,1"], [], None)
@example(["class-monoid", "--field", "1,0,1", "--order-basis", "1,0;0,400"],
         [], None)
@example(["bound", "--formula", "thm-main-count", "--g", "1",
          "--max-level", "1"], [], None)
@example(["verify-suite", "--max-disc", "0"], [], None)
@example(["verify-suite", "--max-disc", "5", "--conjugations", "-1"], [],
         None)
@example(["verify-suite", "--max-disc", "5", "--inject-fault"], [], None)
@example(["order-info", "--field", "1,0,1", "--order-basis", "1,0;0,1/0"],
         [], None)
@example(["order-info", "--field", "1,0,1"], [], "missing")
@example(["class-monoid", "--field=-100000007,0,1"], [], None)
@example(["class-monoid", "--field=2000000011,0,1"], [], None)
@example(["class-monoid", "--field=-2000000011,0,1"], [], None)
def test_every_run_ends_with_an_exit_code(config_dir, argv, fmt, config):
    if config is not None:
        path = config_dir / "orderkit.cfg"
        if config == "missing":
            path = config_dir / "no-such.cfg"
        else:
            path.write_text("\n".join(config) + "\n")
        argv = argv + ["--config", str(path)]
    rc, out, err = run(argv + fmt)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in out + err
    if rc == 0:
        assert out and not err
    elif rc != 2 or argv[0] != "verify-suite":  # a failed check prints lines
        assert err.startswith(("usage error: ", "error ["))
