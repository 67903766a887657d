import hashlib
import json

import archspace as a
from archspace.cli import _parse_budget, build_parser, main
from archspace.search import EvoConfig, WalkConfig
from archspace.serialize import parse_document, serialize


def run(*argv):
    return main(list(argv))


def test_build_validate_cost_eval_pipeline(tmp_path):
    net = tmp_path / "net.json"
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(net)) == 0
    assert run("validate", str(net), "--out", str(tmp_path / "v.json")) == 0

    cost_out = tmp_path / "cost.json"
    assert run("cost", str(net), "--out", str(cost_out)) == 0
    report = json.loads(cost_out.read_text())
    spec = parse_document(net.read_bytes())
    assert report["params"] == a.network_cost(spec).total.params

    dot_out = tmp_path / "net.dot"
    assert run("dot", str(net), "--out", str(dot_out)) == 0
    assert dot_out.read_text().startswith("digraph")

    eval1 = tmp_path / "e1.json"
    eval2 = tmp_path / "e2.json"
    assert run("eval", str(net), "--seed", "5", "--batch", "2", "--out", str(eval1)) == 0
    assert run("eval", str(net), "--seed", "5", "--batch", "2", "--out", str(eval2)) == 0
    assert eval1.read_bytes() == eval2.read_bytes()
    payload = json.loads(eval1.read_text())
    assert payload["shape"] == [2, 10] and len(payload["sha256"]) == 64


def test_walk_then_replay_roundtrip(tmp_path):
    net = tmp_path / "net.json"
    log = tmp_path / "walk.jsonl"
    final = tmp_path / "final.json"
    replayed = tmp_path / "replayed.json"
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(net)) == 0
    assert run("walk", str(net), "--steps", "300", "--seed", "9",
               "--p-eliminate", "0.4",
               "--budget", "50000,400000,1000000,30000000",
               "--out", str(log), "--final-net", str(final)) == 0
    assert run("replay", str(net), "--log", str(log), "--out", str(replayed)) == 0
    assert final.read_bytes() == replayed.read_bytes()


def test_search_cli_negflops(tmp_path):
    net = tmp_path / "net.json"
    best = tmp_path / "best.json"
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(net)) == 0
    assert run("search", str(net), "--steps", "10", "--population", "4",
               "--proxy", "negflops", "--seed", "1",
               "--budget", "50000,400000,1000000,30000000",
               "--out", str(best), "--log", str(tmp_path / "s.jsonl")) == 0
    spec = parse_document(best.read_bytes())
    assert not a.validate_network(spec)


def test_score_cli_identity_network(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert run("build", "--stem", "4", "--resolution", "16", "--stages", "1",
               "--dims", "6", "--classes", "10", "--out", str(net)) == 0
    assert run("score", str(net), "--proxy", "vkdnw", "--batch-size", "10") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 0.0 and out["proxy_id"] == "vkdnw"


def test_readme_score_example(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(net)) == 0
    capsys.readouterr()
    assert run("score", str(net), "--proxy", "vkdnw", "--seed", "3", "--batch-size", "16") == 0
    out = json.loads(capsys.readouterr().out)
    # Every block has far more than 10 * 16 parameters, so all nine deciles
    # are exact zeros of the padded spectrum.
    assert out["per_block"] == [0.0] * 4 and out["value"] == 0.0


def test_score_cli_reports_what_each_proxy_scored(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(net)) == 0
    total = a.network_cost(parse_document(net.read_bytes())).total
    capsys.readouterr()
    for proxy, value in [("negparams", -float(total.params)), ("negflops", -float(total.flops))]:
        assert run("score", str(net), "--proxy", proxy) == 0
        out = json.loads(capsys.readouterr().out)
        # a network total: stem, transitions and head included, so no
        # "block parameters only" note; no batch is drawn, so no batch_size
        assert out == {"proxy_id": proxy, "value": value, "per_block": [], "seed": 0}
    assert run("score", str(net), "--proxy", "random", "--batch-size", "10") == 0
    out = json.loads(capsys.readouterr().out)
    assert "scored_parameters" not in out and "batch_size" not in out
    assert run("score", str(net), "--proxy", "vkdnw", "--batch-size", "10") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["scored_parameters"] == "block parameters only" and out["batch_size"] == 10


# sha256 of the README pipeline's outputs.  A deliberate change of these
# bytes updates the pins and is recorded in CHANGES.md.
README_PINS = {
    "net": "12c6876b0664e76b3ddac6a2256682625f5181301ae88f3a64778708e52549ef",
    "walk_log": "c5837843f581334141cc7943a8d912f799dfb73702c32e61d877746dac8ea2e3",
    "walk_net": "eee6cca3e9a2cb931a8565cf46b3042aa2a97289702251b6e12b427347add203",
    "search_log": "3189ce71d06cfebb8f0c9a3e327e6c8f3eea5d08d425c16e84998c8d5840f7e4",
    "search_net": "bab6501ce7cf9f80b8dc58dcbb3cb9b73ca90ef3d2af0565cedad99feb07c0da",
    "score": "56ee8e9260151cd4e668f9a289594133540763f3c8196414dd4d6918247b520c",
}


def test_readme_pipeline_bytes_are_pinned(tmp_path, capsys):
    f = {name: tmp_path / name for name in README_PINS}
    budget = ("--budget", "50000,250000,1000000,20000000")
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(f["net"])) == 0
    assert run("walk", str(f["net"]), "--steps", "300", "--seed", "7", *budget,
               "--out", str(f["walk_log"]), "--final-net", str(f["walk_net"])) == 0
    assert run("search", str(f["net"]), "--steps", "40", "--population", "8",
               "--proxy", "negflops", "--seed", "0", *budget,
               "--log", str(f["search_log"]), "--out", str(f["search_net"])) == 0
    capsys.readouterr()
    assert run("score", str(f["walk_net"]), "--proxy", "vkdnw", "--seed", "3",
               "--batch-size", "10") == 0
    f["score"].write_text(capsys.readouterr().out)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in f.items()}
    assert got == README_PINS


def test_protocol_cli(tmp_path):
    out = tmp_path / "p.json"
    assert run("protocol", "--task", "classification", "--gpus", "8", "--out", str(out)) == 0
    cfg = json.loads(out.read_text())
    assert cfg["epochs"] == 150 and cfg["batch_size_per_gpu"] == 48


def test_exit_codes(tmp_path, capsys):
    # 2: unreadable / malformed input
    assert run("validate", str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run("cost", str(bad)) == 2
    # 1: structurally parseable but invalid network
    net = tmp_path / "net.json"
    run("build", "--stem", "4", "--resolution", "16", "--stages", "1",
        "--dims", "6", "--classes", "10", "--out", str(net))
    doc = json.loads(net.read_text())
    doc["network"]["stages"][0]["spatial"] = [3, 3]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(doc))
    assert run("validate", str(bad2)) == 1
    # 3: seed outside the budget, one stderr line
    capsys.readouterr()
    for argv in [("walk", str(net), "--steps", "1"),
                 ("search", str(net), "--steps", "2", "--population", "1", "--proxy", "negflops")]:
        assert run(*argv, "--budget", "0,1,0,1", "--out", str(tmp_path / "w.jsonl")) == 3, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside budget" in err, (argv, err)
    # 2: a vkdnw batch too small for nine deciles, rejected before any work
    # with the library's message
    for cmd in ("score", "search"):
        assert run(cmd, str(net), "--batch-size", "5") == 2
        err = capsys.readouterr().err
        assert err == "error: batch_size must be >= 10 for vkdnw, got 5\n", (cmd, err)
    # 0: proxies that draw no batch ignore the flag
    assert run("score", str(net), "--proxy", "negflops", "--batch-size", "5") == 0
    # 0: the largest seed Rng keys; the report echoes it
    capsys.readouterr()
    assert run("score", str(net), "--proxy", "random", "--seed", str(2**64 - 1)) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1
    # 2: flags, documents and edit logs checked where they are parsed, one stderr line
    log = tmp_path / "w.jsonl"
    assert run("walk", str(net), "--steps", "2", "--out", str(log)) == 0
    record = next(json.loads(line) for line in log.read_text().splitlines()
                  if json.loads(line)["edit"] is not None)
    null_anchor = tmp_path / "null_anchor.jsonl"
    null_anchor.write_text(json.dumps({**record, "edit": {**record["edit"], "anchor": None}}) + "\n")
    bogus_kind = tmp_path / "bogus_kind.jsonl"
    bogus_kind.write_text(json.dumps({**record, "edit": {**record["edit"], "kind": "bogus"}}) + "\n")
    int_digest = tmp_path / "int_digest.jsonl"
    int_digest.write_text(json.dumps({**record, "edit": {**record["edit"], "digest": 7}}) + "\n")
    del record["edit"]["block"]
    headless = tmp_path / "headless.jsonl"
    headless.write_text(json.dumps(record) + "\n")
    bad_docs = {}
    for name, damage in [
        ("float", lambda d: d["network"]["input_resolution"].__setitem__(0, 16.0)),
        ("null_couples", lambda d: d["blocks"][0].__setitem__("couples", None)),
        ("short_spatial", lambda d: d["network"]["stages"][0].__setitem__("spatial", [2])),
        ("no_blocks", lambda d: d.__setitem__("blocks", [])),
        ("no_stages", lambda d: d.update(blocks=[], network={**d["network"], "stages": []})),
    ]:
        doc = json.loads(net.read_text())
        damage(doc)
        bad_docs[name] = tmp_path / f"{name}.json"
        bad_docs[name].write_text(json.dumps(doc))
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff" + net.read_bytes())
    zero_batch = tmp_path / "zero_batch.json"
    zero_batch.write_text(json.dumps({"batch": 0}))
    float_batch = tmp_path / "float_batch.json"
    float_batch.write_text(json.dumps({"batch": 1.5}))
    zero_n_try = tmp_path / "zero_n_try.json"
    zero_n_try.write_text(json.dumps({"n_try": 0}))
    small_batch_size = tmp_path / "small_batch_size.json"
    small_batch_size.write_text(json.dumps({"batch_size": 5}))
    capsys.readouterr()
    for argv, flag in [
        (("walk", str(net), "--budget", "1,2,x,4"), "--budget"),
        (("walk", str(net), "--steps", "-5"), "steps must be >= 0, got -5"),
        (("walk", str(net), "--p-eliminate", "1.5"), "p_eliminate must be in [0, 1], got 1.5"),
        (("walk", str(net), "--config", str(zero_n_try)), "n_try must be >= 1, got 0"),
        # flag values are checked before the document is read
        (("walk", str(tmp_path / "missing.json"), "--n-try", "0"), "n_try must be >= 1, got 0"),
        (("score", str(tmp_path / "missing.json"), "--threads", "0"), "threads must be >= 1, got 0"),
        # a seed outside [0, 2**64) would alias another seed's streams
        (("score", str(tmp_path / "missing.json"), "--seed", str(2**64)),
         f"seed must be in [0, 2**64), got {2**64}"),
        (("score", str(net), "--proxy", "random", "--seed", "-1"), "seed must be in [0, 2**64), got -1"),
        (("walk", str(tmp_path / "missing.json"), "--seed", "-1"), "seed must be in [0, 2**64), got -1"),
        (("search", str(net), "--proxy", "negflops", "--seed", str(2**64)),
         f"seed must be in [0, 2**64), got {2**64}"),
        (("eval", str(tmp_path / "missing.json"), "--seed", "-3"), "seed must be in [0, 2**64), got -3"),
        (("search", str(net), "--population", "0", "--proxy", "negflops"),
         "population_size must be >= 1, got 0"),
        (("replay", str(net), "--log", str(headless)), "block"),
        (("replay", str(net), "--log", str(null_anchor)), "anchor"),
        (("replay", str(net), "--log", str(bogus_kind)), "edit kind"),
        (("replay", str(net), "--log", str(int_digest)), "edit digest"),
        (("validate", str(bad_docs["float"])), "input_resolution"),
        (("validate", str(bad_docs["null_couples"])), "malformed block"),
        (("cost", str(bad_docs["short_spatial"])), "spatial"),
        (("cost", str(not_utf8)), "not valid JSON"),
        (("dot", str(net), "--block", "99"), "--block"),
        (("dot", str(net), "--block", "-1"), "--block"),
        (("eval", str(net), "--batch", "0"), "--batch"),
        (("eval", str(net), "--batch", "-1"), "--batch"),
        (("eval", str(net), "--config", str(zero_batch)), "--batch"),
        (("eval", str(net), "--config", str(float_batch)), "--batch"),
        (("build", "--stages", "2,x"), "--stages: invalid int list"),
        (("build", "--resolution", "4x4x4"), "--resolution: invalid resolution"),
        (("walk", str(net), "--steps", "abc"), "--steps"),
        (("protocol", "--task", "bogus"), "--task"),
        ((), "command"),
        (("protocol", "--task", "classification", "--gpus", "0"), "gpu_count must be >= 1, got 0"),
        (("protocol", "--task", "classification", "--gpus", "-2"), "gpu_count must be >= 1, got -2"),
        (("score", str(net), "--threads", "0"), "threads must be >= 1, got 0"),
        (("score", str(net), "--threads", "-2"), "threads must be >= 1, got -2"),
        (("score", str(net), "--config", str(small_batch_size)), "batch_size must be >= 10 for vkdnw, got 5"),
        (("search", str(net), "--threads", "0", "--proxy", "negflops"), "threads must be >= 1, got 0"),
        (("search", str(net), "--threads", "-2", "--proxy", "negflops"), "threads must be >= 1, got -2"),
        (("search", str(net), "--steps-per-candidate", "-1", "--proxy", "negflops"),
         "steps_per_candidate must be >= 0, got -1"),
        (("build", "--variant", "bogus"), "variant"),
        (("build", "--stages", "2,2", "--dims", "24"), "stage_channels"),
        (("build", "--resolution", "0"), "--resolution"),
        (("build", "--stem", "0"), "--stem"),
        (("build", "--classes", "0"), "--classes"),
        (("build", "--in-channels", "0"), "--in-channels"),
        (("build", "--stages", "0,2"), "--stages"),
        (("build", "--dims", "24,0"), "--dims"),
    ]:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err and "_parse_" not in err, (argv, err)
    # 1: a well-formed edit that names no template or no block is refused, not a traceback
    for fields, says in [({"block": 0, "template": "nope"}, "nope"), ({"block": 7}, "block 7")]:
        record["edit"].update(fields)
        headless.write_text(json.dumps(record) + "\n")
        assert run("replay", str(net), "--log", str(headless)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and says in err, (fields, err)
    # 1: a replay that would write an invalid network, or that repeats a new
    # node id, is refused with one stderr line and writes nothing
    readme = tmp_path / "readme.json"
    assert run("build", "--variant", "mbconv4,resnet_basic", "--stem", "12",
               "--resolution", "32", "--stages", "2,2", "--dims", "24,48",
               "--classes", "10", "--out", str(readme)) == 0
    blk = parse_document(readme.read_bytes()).blocks[2]
    assert blk.input_shape == (48, 2, 2)
    one_edit = tmp_path / "one_edit.jsonl"
    replayed = tmp_path / "replayed.json"
    for template, ids, says in [("relposbias", (blk.next_id,), "RelPosBias requires integer sqrt"),
                                ("copy_add", (blk.next_id,) * 2, str((blk.next_id,) * 2))]:
        edit = a.Edit("add", 2, a.INPUT, blk.digest, template=template,
                      cut_edge=blk.out_edges(a.INPUT)[0], new_ids=ids)
        one_edit.write_text(json.dumps({"step": 1, "edit": edit.to_json()}) + "\n")
        capsys.readouterr()
        assert run("replay", str(readme), "--log", str(one_edit), "--out", str(replayed)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and says in err and not replayed.exists(), (template, err)
    # 1: a seed network with fewer blocks than its stages hold is refused before the walk
    assert run("walk", str(bad_docs["no_blocks"]), "--steps", "1") == 1
    # 1: a network with no stages is invalid; commands that cost or run it say so in one stderr line
    no_stages, out = str(bad_docs["no_stages"]), str(tmp_path / "no_stages_out")
    capsys.readouterr()
    assert run("validate", no_stages, "--out", out) == 1
    assert run("score", no_stages) == 1
    assert "network has no stages" in capsys.readouterr().out
    for cmd in ("cost", "eval", "walk", "search"):
        assert run(cmd, no_stages, "--out", out) == 1, cmd
        err = capsys.readouterr().err
        assert err == "error: network has no stages\n", (cmd, err)


def test_walk_refuses_a_next_id_in_use_before_any_step(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert run("build", "--variant", "mbconv4,identity", "--stem", "12",
               "--resolution", "32", "--stages", "1,1", "--dims", "24,48",
               "--classes", "10", "--out", str(net)) == 0
    for block, next_id in [(0, 2), (1, 1)]:  # an id in use; a reserved id
        doc = json.loads(net.read_text())
        doc["blocks"][block]["next_id"] = next_id
        bad = tmp_path / f"next_id_{block}.json"
        bad.write_text(json.dumps(doc))
        log = tmp_path / "walk.jsonl"
        capsys.readouterr()
        assert run("validate", str(bad)) == 2
        assert run("walk", str(bad), "--steps", "50", "--out", str(log)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and err.count("next_id") == 2 and not log.exists(), err


def test_step_flag_defaults_are_the_config_defaults():
    walk = build_parser().parse_args(["walk", "net.json"])
    cfg = WalkConfig(steps=walk.steps, budget=_parse_budget(walk.budget), seed=walk.seed)
    assert (walk.p_eliminate, walk.n_try, walk.record_every) == (cfg.p_eliminate, cfg.n_try, cfg.record_every)
    search = build_parser().parse_args(["search", "net.json"])
    evo = EvoConfig()
    assert (search.steps, search.population, search.steps_per_candidate, search.proxy,
            _parse_budget(search.budget), search.seed, search.p_eliminate, search.n_try,
            search.batch_size, search.threads) == (
        evo.total_steps, evo.population_size, evo.steps_per_candidate, evo.proxy_id.value,
        evo.budget, evo.seed, evo.p_eliminate, evo.n_try, evo.batch_size, evo.threads)


def test_config_file_supplies_defaults(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"task": "detection"}))
    out = tmp_path / "p.json"
    assert run("protocol", "--config", str(cfgfile), "--out", str(out)) == 0
    assert json.loads(out.read_text())["epochs"] == 12
    # Keys of other subcommands' flags are ignored, not range-checked here.
    cfgfile.write_text(json.dumps({"steps": -1}))
    assert run("protocol", "--task", "classification", "--config", str(cfgfile),
               "--out", str(out)) == 0
