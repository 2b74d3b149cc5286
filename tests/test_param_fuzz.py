"""Fuzzing of `bentkit build` parameter files, in process through cli.main.

Every construction that reads a --param-file gets drawn JSON objects.
Each key it reads, as cli._BUILDS declares them, is absent or holds a
value of the right kind, which may be out of range or a number JSON reads
oddly (NaN, a float for a count); at most one key holds a value of the
wrong JSON type.  Every run must end with exit 0, 2 or 3, and a nonzero
exit prints exactly one `error:` line and no traceback.  That line is
never an operator's error from inside the arithmetic, which names no key.
About one file in three also holds a key the construction does not read,
and must end with exit 3 naming it.  Sizes are drawn small, or so large
that the run must fail before any table is built, so no drawn build
exceeds 10 variables.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bentkit.cli import _BUILDS, main
from test_arg_fuzz import _BARE

_JUNK = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.lists(st.integers(-2, 9), max_size=3) | st.dictionaries(st.text(max_size=2), st.none())
)
_SIZE = st.integers(-1, 3) | st.sampled_from([10**6, 2.5, float("nan"), True, "3"])
_ELEMENT = st.integers(-1, 9) | st.sampled_from(["0x3", "7", "zz", 1e300])

_KEYS = {
    "size": _SIZE,
    "map": st.just("random") | st.permutations(range(4))
    | st.lists(st.integers(-1, 8), max_size=8),
    "function": st.sampled_from(["random", "absent.tt", ""]),
    "bits": st.just("random") | st.permutations([1, 1, 0]).map(lambda p: [0, *p])
    | st.lists(st.integers(0, 2), max_size=8),
    "pair": st.lists(_ELEMENT, min_size=1, max_size=3),
    "subspace": st.just("auto") | st.lists(st.integers(-1, 8), max_size=3),
}

# the kind of every --param-file key some construction reads
_KINDS = {
    **dict.fromkeys(["k", "k_f", "k_g", "m", "m_f", "m_g"], "size"),
    **dict.fromkeys(["phi", "psi"], "map"),
    **dict.fromkeys(["u", "v"], "function"),
    **dict.fromkeys(["theta", "vartheta"], "bits"),
    **dict.fromkeys(["form_f", "shift_f", "form_g", "shift_g"], "pair"),
    **dict.fromkeys(["e1", "e2", "xi1", "xi2"], "subspace"),
}
# the keys each construction reads, from the declaration
_READS = {name: keys.replace("!", "").split() for name, (_, _, keys, _) in _BUILDS.items()
          if keys}


@st.composite
def param_files(draw):
    name = draw(st.sampled_from(sorted(_READS)))
    reads = _READS[name]
    params = {key: draw(_KEYS[_KINDS[key]]) for key in reads
              if draw(st.integers(0, 4))}  # each key present about three times in four
    if draw(st.booleans()):  # one value of the wrong JSON type
        params[draw(st.sampled_from(reads))] = draw(_JUNK)
    # about one file in three: hypothesis draws 0 from integers(0, 4) more
    # often than one time in five, so in two runs of 3000 drawn files keys
    # were present 76-77 % of the time and 33-34 % of files held an unread key
    unread = not draw(st.integers(0, 4))
    if unread:  # another construction's key, or a misspelling
        key = draw(st.sampled_from(sorted(set(_KINDS) - set(reads))) | st.text(max_size=6)
                   .filter(lambda key: key not in reads))
        params[key] = draw(_JUNK)
    return name, json.dumps(params), unread


_DEEP = "[" * 50000 + "]" * 50000  # deeper than the JSON decoder can recurse


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=param_files())
@example(case=("psap-restricted-sum", '{"m_f": 2, "theta": [0, 1, 0, 1], '
               '"form_f": [1e400, 0], "shift_f": [1, 0], "m_g": 2, '
               '"vartheta": [0, 1, 0, 1], "form_g": [1, 0], "shift_g": [1, 0]}', False))
@example(case=("mm", '{"phi": [0, 1e400]}', False))
@example(case=("class-d", '{"k": 2, "e2": [1e400]}', False))
@example(case=("psap", _DEEP, False))
@example(case=("mm", '{"k": 1, "u": "a\\nb\\u001e"}', False))  # line breaks in a path
@example(case=("mm", '{"k": -1}', False))
@example(case=("mm", '{"k": "3"}', False))
@example(case=("mm-restricted-sum", '{"k_f": -2, "k_g": 2}', False))
@example(case=("psap", '{"m": 3, "thetaa": [0, 1]}', True))
def test_every_parameter_file_ends_with_a_documented_exit(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # relative paths in the file resolve here
    name, text, unread = case
    (tmp_path / "p.json").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["build", name, "--param-file", "p.json", "-o", "h.tt"])
    if code == 0:
        assert err.getvalue() == "" and not unread
    else:
        assert code in (2, 3), (code, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not any(bare in lines[0] for bare in _BARE), lines
        assert not unread or (code == 3 and f"{name} does not read parameter" in lines[0])
