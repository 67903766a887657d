import json

import archspace as a
from archspace.cli import main
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
    # 3: seed outside the budget
    assert run("walk", str(net), "--steps", "1", "--budget", "0,1,0,1",
               "--out", str(tmp_path / "w.jsonl")) == 3
    # 2: a vkdnw batch too small for nine deciles, rejected before any work
    capsys.readouterr()
    for cmd in ("score", "search"):
        assert run(cmd, str(net), "--batch-size", "5") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--batch-size" in err
    # 0: proxies that draw no batch ignore the flag
    assert run("score", str(net), "--proxy", "negflops", "--batch-size", "5") == 0
    # 2: numeric flags and edit logs checked where they are parsed, one stderr line
    log = tmp_path / "w.jsonl"
    assert run("walk", str(net), "--steps", "2", "--out", str(log)) == 0
    record = next(json.loads(line) for line in log.read_text().splitlines()
                  if json.loads(line)["edit"] is not None)
    del record["edit"]["block"]
    headless = tmp_path / "headless.jsonl"
    headless.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    for argv, flag in [
        (("walk", str(net), "--budget", "1,2,x,4"), "--budget"),
        (("walk", str(net), "--steps", "-5"), "--steps"),
        (("search", str(net), "--population", "0", "--proxy", "negflops"), "--population"),
        (("replay", str(net), "--log", str(headless)), "block"),
    ]:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err, (argv, err)
    # 1: a well-formed edit that names no template is refused, not a traceback
    record["edit"].update(block=0, template="nope")
    headless.write_text(json.dumps(record) + "\n")
    assert run("replay", str(net), "--log", str(headless)) == 1


def test_config_file_supplies_defaults(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"task": "detection"}))
    out = tmp_path / "p.json"
    assert run("protocol", "--config", str(cfgfile), "--out", str(out)) == 0
    assert json.loads(out.read_text())["epochs"] == 12
