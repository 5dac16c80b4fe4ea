"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets import load_collection_csv, load_collection_json


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_writes_csv_and_ground_truth(tmp_path):
    output = tmp_path / "dirty.csv"
    truth_path = tmp_path / "truth.json"
    exit_code = main(
        [
            "generate",
            "--entities",
            "30",
            "--duplicates",
            "1.0",
            "--seed",
            "3",
            "--output",
            str(output),
            "--ground-truth",
            str(truth_path),
        ]
    )
    assert exit_code == 0
    collection = load_collection_csv(output)
    assert len(collection) >= 30
    truth = json.loads(truth_path.read_text())
    assert truth["clusters"]


def test_generate_json_clean_clean(tmp_path):
    output = tmp_path / "pair.json"
    assert main(["generate", "--entities", "20", "--clean-clean", "--output", str(output)]) == 0
    collection = load_collection_json(output)
    assert any(identifier.startswith("kbA:") for identifier in collection.identifiers)
    assert any(identifier.startswith("kbB:") for identifier in collection.identifiers)


def test_resolve_roundtrip(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "40", "--seed", "5", "--output", str(data)])
    clusters_file = tmp_path / "clusters.txt"
    exit_code = main(
        [
            "resolve",
            str(data),
            "--threshold",
            "0.5",
            "--scheduler",
            "weight_order",
            "--output",
            str(clusters_file),
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "blocking" in captured and "clusters" in captured
    lines = clusters_file.read_text().strip().splitlines()
    assert lines
    assert all("|" in line for line in lines)


def test_link_two_collections(tmp_path, capsys):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    # generate a clean-clean JSON then split it into the two sources by prefix
    combined = tmp_path / "combined.json"
    main(["generate", "--entities", "30", "--clean-clean", "--seed", "9", "--output", str(combined)])
    collection = load_collection_json(combined)
    from repro.datamodel.collection import EntityCollection
    from repro.datasets import save_collection_csv

    left_collection = EntityCollection(
        (d for d in collection if d.identifier.startswith("kbA:")), name="left"
    )
    right_collection = EntityCollection(
        (d for d in collection if d.identifier.startswith("kbB:")), name="right"
    )
    save_collection_csv(left_collection, left)
    save_collection_csv(right_collection, right)

    exit_code = main(["link", str(left), str(right), "--threshold", "0.5", "--no-metablocking"])
    assert exit_code == 0
    assert "linked clusters" in capsys.readouterr().out


def test_unsupported_format_is_rejected(tmp_path):
    bogus = tmp_path / "data.xml"
    bogus.write_text("<xml/>")
    with pytest.raises(SystemExit):
        main(["resolve", str(bogus)])


@pytest.mark.parametrize("count", ["0", "-3"])
def test_num_workers_below_one_is_rejected(count, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--num-workers", count])
    assert "must be at least 1" in capsys.readouterr().err


def test_blocking_engine_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    for engine in ("index", "oracle"):
        assert main(["resolve", str(data), "--blocking-engine", engine]) == 0
        out = capsys.readouterr().out
        assert f"engine={engine}" in out  # config.describe() names the engine
        assert f"@{engine}" in out  # the report stage names the executing engine
    assert build_parser().parse_args(["resolve", "x.csv"]).blocking_engine == "index"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--blocking-engine", "bogus"])


@pytest.mark.parametrize("flag", ["--scheduler", "--blocking"])
@pytest.mark.parametrize("command", ["resolve", "link"])
def test_unknown_scheme_is_a_usage_error(flag, command, capsys):
    inputs = ["x.csv"] if command == "resolve" else ["x.csv", "y.csv"]
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, *inputs, flag, "bogus"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_scheme_flags_accept_every_workflow_name():
    parser = build_parser()
    for name in ("token", "canopy", "minhash_lsh", "standard"):
        assert parser.parse_args(["resolve", "x.csv", "--blocking", name]).blocking == name
    for name in ("weight_order", "hierarchy", "cost_benefit", "psnm"):
        assert parser.parse_args(["link", "x.csv", "y.csv", "--scheduler", name]).scheduler == name
    # weighting and pruning stay free-form: the workflow looks them up case-insensitively
    args = parser.parse_args(["resolve", "x.csv", "--weighting", "cbs", "--pruning", "wep"])
    assert (args.weighting, args.pruning) == ("cbs", "wep")


def test_matching_engine_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    for engine in ("batch", "pairwise"):
        assert main(["resolve", str(data), "--matching-engine", engine]) == 0
        out = capsys.readouterr().out
        assert f"engine={engine}" in out  # config.describe() names the engine
        # the matching stage reports scheduling+matching engines as
        # "matching[<scheduler>@<scheduling engine>+<matching engine>]"
        assert f"+{engine}]" in out
    assert build_parser().parse_args(["resolve", "x.csv"]).matching_engine == "batch"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--matching-engine", "bogus"])


def test_scheduling_engine_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    for engine in ("array", "object"):
        assert main(["resolve", str(data), "--scheduling-engine", engine]) == 0
        out = capsys.readouterr().out
        assert f"engine={engine}" in out  # config.describe() names the engine
        assert f"@{engine}+" in out  # the report stage names the executing engine
    assert build_parser().parse_args(["resolve", "x.csv"]).scheduling_engine == "array"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--scheduling-engine", "bogus"])


def test_no_shared_context_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    assert main(["resolve", str(data)]) == 0
    assert "shared-context" in capsys.readouterr().out
    assert main(["resolve", str(data), "--no-shared-context"]) == 0
    assert "shared-context" not in capsys.readouterr().out


def test_clustering_engine_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    for engine in ("array", "object"):
        assert main(["resolve", str(data), "--clustering-engine", engine]) == 0
        out = capsys.readouterr().out
        assert f"engine={engine}" in out  # config.describe() names the engine
        # the clustering stage reports "clustering[<algorithm>@<engine>]"
        assert f"clustering[connected_components@{engine}]" in out
    assert build_parser().parse_args(["resolve", "x.csv"]).clustering_engine == "array"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--clustering-engine", "bogus"])


def test_clustering_algorithm_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "7", "--output", str(data)])
    assert main(["resolve", str(data), "--clustering", "merge_center"]) == 0
    out = capsys.readouterr().out
    assert "clustering[merge_center@array]" in out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["resolve", "x.csv", "--clustering", "bogus"])


def test_incremental_snapshot_restore_roundtrip(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "30", "--seed", "9", "--output", str(data)])
    snap = tmp_path / "snap"
    clusters_file = tmp_path / "clusters.txt"
    assert (
        main(
            [
                "incremental",
                str(data),
                "--threshold",
                "0.5",
                "--snapshot",
                str(snap),
                "--output",
                str(clusters_file),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "incremental[profile_similarity@array]" in out
    assert "incremental_snapshot" in out
    assert clusters_file.exists()
    assert (snap / "manifest.json").is_file()

    # a later stream resumes from the snapshot without re-adding the history
    more = tmp_path / "more.csv"
    more.write_text("id,name\nnew:1,Completely Fresh Record\n")
    assert main(["incremental", str(more), "--restore", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "incremental_restore" in out


def test_incremental_object_engine_flag(tmp_path, capsys):
    data = tmp_path / "dirty.csv"
    main(["generate", "--entities", "20", "--seed", "9", "--output", str(data)])
    assert main(["incremental", str(data), "--engine", "object"]) == 0
    assert "incremental[profile_similarity@object]" in capsys.readouterr().out
