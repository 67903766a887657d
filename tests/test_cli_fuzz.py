"""Fuzzed command lines, config files and damaged documents against every
subcommand: each run returns an exit code in {0, 1, 2, 3}, writes at most
one stderr line, and no exception escapes ``cli.main``.

Work is capped so the test stays fast: --steps and --population at most
20, --batch and --batch-size at most 16, --threads at most 2, and small
networks in ``build``.  Every output goes under tmp_path.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from archspace.cli import main

JUNK = st.sampled_from(["", "abc", "1.5", "2,x", "-", "nan", "1e3", "x1", ",", "0x4"])


def _or_junk(values):
    """values seven times in eight, else a junk token."""
    return st.integers(0, 7).flatmap(lambda i: values if i else JUNK)


def _ints(low, high):
    return _or_junk(st.integers(low, high).map(str))


SEED = _ints(-2, 20)
STEPS = _ints(-2, 20)
POPULATION = _ints(-1, 20)
BATCH = _ints(-1, 16)
THREADS = _ints(-1, 2)
SMALL = _ints(-1, 20)
FLOAT = _or_junk(st.sampled_from(["0", "0.3", "1", "1.5", "-0.1", "nan", "inf"]))
BUDGET = _or_junk(st.sampled_from(["0,27000000,0,20000000000", "0,1,0,1", "1,2,x,4",
                                   "5,1,0,1", "-1,5,0,5", "0,5,0"]))
PROXY = _or_junk(st.sampled_from(["vkdnw", "negflops", "negparams", "random"]))
TASK = _or_junk(st.sampled_from(["classification", "detection", "segmentation"]))
VARIANT = _or_junk(st.sampled_from(["identity", "mbconv4", "attention2h", "resnet_basic",
                                    "squeeze_excite", "mbconv4,identity", "bogus"]))
RESOLUTION = st.one_of(st.sampled_from(["16", "8x16", "0", "16x", "4x4x4"]), _ints(-1, 32))
STAGES = st.one_of(st.sampled_from(["1", "1,1", "2", "0,1", "1,x"]), _ints(-1, 3))
DIMS = st.one_of(st.sampled_from(["8", "8,12", "6", "8,0", "4,8,12"]), _ints(-1, 16))

# Flags each subcommand may get, with their values.  Flags that set the
# amount of work are always given (see ALWAYS) so no default runs long.
FLAGS = {
    "build": {"--variant": VARIANT, "--stem": _ints(-1, 8), "--resolution": RESOLUTION,
              "--stages": STAGES, "--dims": DIMS, "--classes": SMALL, "--in-channels": SMALL},
    "validate": {},
    "cost": {},
    "walk": {"--steps": STEPS, "--record-every": SMALL, "--p-eliminate": FLOAT,
             "--n-try": SMALL, "--seed": SEED, "--budget": BUDGET},
    "search": {"--steps": STEPS, "--population": POPULATION, "--steps-per-candidate": _ints(-1, 5),
               "--proxy": PROXY, "--p-eliminate": FLOAT, "--n-try": SMALL,
               "--batch-size": BATCH, "--threads": THREADS, "--seed": SEED, "--budget": BUDGET},
    "score": {"--proxy": PROXY, "--batch-size": BATCH, "--threads": THREADS, "--seed": SEED},
    "eval": {"--batch": BATCH, "--seed": SEED},
    "dot": {"--block": _ints(-2, 6)},
    "protocol": {"--task": TASK, "--gpus": _ints(-2, 16)},
    "replay": {},
}
ALWAYS = {"walk": ("--steps",), "search": ("--steps", "--population", "--batch-size"),
          "score": ("--batch-size",)}
TAKES_SPEC = {cmd for cmd in FLAGS if cmd not in ("build", "protocol")}
ALL_FLAGS = {flag: values for flags in FLAGS.values() for flag, values in flags.items()}

JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 20),
                      st.floats(-2, 20, allow_nan=False), st.text("ab1,-", max_size=4),
                      st.lists(st.integers(-1, 4), max_size=3), st.just({}))


def _paths(obj, prefix=()):
    """Every container slot of a JSON value, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def damaged(draw, text):
    """The JSON text unchanged (most often), truncated, with junk in it, or
    with one of its values replaced or deleted."""
    kind = draw(st.sampled_from(["intact"] * 4 + ["truncate", "junk", "replace", "delete"]))
    if kind == "intact":
        return text
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "junk":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from(["}", "[", "\x00", "null", ",,", "\udcff"])) + text[i:]
    lines = text.splitlines()
    li = draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[li])
    paths = list(_paths(doc))
    if not paths:
        return text
    *parent, key = draw(st.sampled_from(paths))
    holder = doc
    for k in parent:
        holder = holder[k]
    if kind == "delete":
        del holder[key]
    else:
        holder[key] = draw(JSON_LEAF)
    lines[li] = json.dumps(doc)
    return "\n".join(lines) + "\n"


@st.composite
def config_text(draw):
    entries = draw(st.dictionaries(
        st.sampled_from(sorted(ALL_FLAGS) + ["--bogus", "--batch_size"]).map(lambda f: f[2:]),
        st.one_of(JSON_LEAF, st.sampled_from(["16", "vkdnw", "0,1,0,1", "1,x"])), max_size=3))
    # JSON_LEAF keeps within the work caps; half the time a flag's entry
    # takes one of the values that flag gets on the command line instead.
    for key in list(entries):
        flag = "--" + key.replace("_", "-")
        if flag in ALL_FLAGS and draw(st.booleans()):
            entries[key] = draw(ALL_FLAGS[flag])
    return draw(st.one_of(st.just(json.dumps(entries)), damaged(json.dumps(entries))))


@st.composite
def invocation(draw, net_text, log_text):
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[cmd]
    chosen = set(ALWAYS.get(cmd, ())) | set(draw(st.lists(st.sampled_from(sorted(flags)),
                                                          max_size=4) if flags else st.just([])))
    argv = [cmd]
    files = {}
    if cmd in TAKES_SPEC:
        files["doc.json"] = draw(damaged(net_text))
        argv.append("doc.json")
    if cmd == "replay":
        files["log.jsonl"] = draw(damaged(log_text))
        argv += ["--log", "log.jsonl"]
    for flag in sorted(chosen):
        argv += [flag, draw(flags[flag])]
    if draw(st.booleans()):
        files["cfg.json"] = draw(config_text())
        argv += ["--config", "cfg.json"]
    if draw(st.integers(0, 7)) == 0:
        argv.append("--missing-flag")
    return argv, files


def test_cli_survives_fuzzed_inputs(tmp_path, capsys):
    net, log = tmp_path / "net.json", tmp_path / "walk.jsonl"
    assert main(["build", "--variant", "mbconv4", "--stem", "4", "--resolution", "16",
                 "--stages", "1", "--dims", "8", "--classes", "4", "--out", str(net)]) == 0
    assert main(["walk", str(net), "--steps", "6", "--seed", "1", "--out", str(log)]) == 0
    capsys.readouterr()

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(invocation(net.read_text(), log.read_text()))
    def run(case):
        argv, files = case
        for name, text in files.items():
            # "\udcff" stands for the byte 0xff, which is not UTF-8.
            (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        argv += ["--out", str(tmp_path / "out")]
        if argv[0] == "walk":
            argv += ["--final-net", str(tmp_path / "final.json")]
        if argv[0] == "search":
            argv += ["--log", str(tmp_path / "search.jsonl")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code)
        assert err.count("\n") <= 1, (argv, err)

    run()
