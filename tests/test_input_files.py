"""Every input file is read through ``_binio.read_file``, so every reader
turns a path it cannot open, a text file that is not UTF-8 and a JSON
document that does not parse into the same ``cannot read`` error."""

import ast
import json
import pathlib

import pytest

from capkit import artifacts, cli, corpus, maxent, recurrent
from capkit.errors import MalformedInput
from capkit.fixture import generate_fixture

# (reader, what its message calls the file, whether it reads text)
READERS = [
    pytest.param(corpus.load_captions, "captions file", True, id="load_captions"),
    pytest.param(corpus.load_features, "features file", False, id="load_features"),
    pytest.param(lambda path: corpus.load_detections(path, 0.5), "detections file", True,
                 id="load_detections"),
    pytest.param(artifacts.read_json, "JSON file", True, id="read_json"),
    pytest.param(artifacts.read_captions_tsv, "captions TSV", True, id="read_captions_tsv"),
    pytest.param(artifacts.read_nbest_tsv, "n-best TSV", True, id="read_nbest_tsv"),
    pytest.param(maxent.load_maxent, "model file", False, id="load_maxent"),
    pytest.param(recurrent.load_recurrent, "model file", False, id="load_recurrent"),
    pytest.param(cli._load_any_model, "model file", False, id="_load_any_model"),
]


def _bad_paths(tmp_path, text):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("caf\xe9\n".encode("latin-1"))
    paths = {"missing": tmp_path / "missing", "directory": tmp_path,
             "nul": f"{tmp_path}/a\x00b"}
    if text:
        paths["not UTF-8"] = not_utf8
    return paths


@pytest.mark.parametrize("reader, what, text", READERS)
def test_every_reader_rejects_a_path_it_cannot_read(tmp_path, reader, what, text):
    for case, path in _bad_paths(tmp_path, text).items():
        with pytest.raises(MalformedInput) as info:
            reader(str(path))
        assert str(info.value).startswith(f"cannot read {what} {path}: "), case


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture")
    generate_fixture(path, n_images=40, seed=3)
    return path


@pytest.mark.parametrize("key, what", [("captions", "captions file"),
                                       ("features", "features file"),
                                       ("detections", "detections file")])
def test_pipeline_path_with_a_nul_byte_exits_2(fixture_dir, tmp_path, capsys, key, what):
    paths = {"captions": str(fixture_dir / "captions.json"),
             "features": str(fixture_dir / "features.fvec"),
             "detections": str(fixture_dir / "detections.jsonl")}
    paths[key] = str(tmp_path / "in\u0000put")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "paths": paths, "split": [30, 5, 5]}))
    capsys.readouterr()
    assert cli.main(["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run"),
                     "--stages", "ingest,knn"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "MalformedInput"
    assert doc["message"].startswith(f"cannot read {what} {paths[key]}: embedded null byte")


def _file_calls(tree):
    """(enclosing function, line, whether it reads, whether it writes) of each
    call that opens, reads or writes a file. An ``open`` whose mode is not a
    constant counts as both."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "fdopen"):
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            node.args[1] if len(node.args) > 1 else ast.Constant("r"))
                known = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                flags = set(mode.value) if known else set("r+")
                writes = bool(flags & set("wax+"))
                found.append((function, node.lineno, "+" in flags or not writes, writes))
            elif name in ("read_text", "read_bytes", "write_text", "write_bytes"):
                reads = name.startswith("read")
                found.append((function, node.lineno, reads, not reads))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _file_calls_outside_binio(reads: bool):
    """(file, function, line) of each call outside ``_binio.py`` that reads
    (``reads``) or writes (otherwise) a file."""
    src = pathlib.Path(corpus.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name != "_binio.py":
            found += [(path.name, function, line)
                      for function, line, *does in _file_calls(ast.parse(path.read_text()))
                      if does[0 if reads else 1]]
    return found


def test_only_binio_opens_files_for_reading():
    found = [call for call in _file_calls_outside_binio(reads=True)
             if call[:2] != ("artifacts.py", "sha256_file")]
    assert found == []


def test_only_binio_opens_files_for_writing():
    assert _file_calls_outside_binio(reads=False) == []


def test_stages_read_artifacts_only_through_the_context():
    """pipeline.py hands each artifact loader to ``PipelineContext.read``,
    which names the stage to rerun; it never calls one itself."""
    src = pathlib.Path(corpus.__file__).parent
    loaders = {"load_maxent", "load_recurrent", "read_nbest_tsv", "read_captions_tsv",
               "read_generated"}
    found = []
    for node in ast.walk(ast.parse((src / "pipeline.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in loaders:
                found.append(f"pipeline.py:{node.lineno} calls {name}")
    for path in sorted(src.glob("*.py")):
        if "require_artifact" in path.read_text():
            found.append(f"{path.name} names require_artifact")
    assert found == []
