"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

CORPUS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "corpus").glob("*.c")
)


def profile_rows(text):
    """``{macro: (calls, hits, incl_ms, self_ms)}`` from the
    ``--profile`` table at the end of ``text``."""
    lines = text.splitlines()
    start = max(i for i, line in enumerate(lines) if "self_ms" in line)
    rows = {}
    for line in lines[start + 1:]:
        macro, calls, hits, incl, own = line.split()
        rows[macro] = (int(calls), int(hits), float(incl), float(own))
    return rows


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        "syntax stmt trace {| $$stmt::body |}"
        "{ return(`{{enter(); $body; leave();}}); }\n"
        "void f(void) { trace work(); }\n"
    )
    return path


class TestExpand:
    def test_expand_file(self, program_file, capsys):
        assert main(["expand", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "enter()" in out
        assert "syntax" not in out

    def test_keep_meta(self, program_file, capsys):
        assert main(["expand", "--keep-meta", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "syntax stmt trace" in out

    def test_package_then_program(self, tmp_path, capsys):
        pkg = tmp_path / "pkg.c"
        pkg.write_text(
            "syntax exp two {| ( ) |} { return(`(2)); }\n"
        )
        prog = tmp_path / "prog.c"
        prog.write_text("int x = two();\n")
        assert main(["expand", str(pkg), str(prog)]) == 0
        out = capsys.readouterr().out
        assert "int x = 2;" in out
        assert "two" not in out

    def test_builtin_package(self, tmp_path, capsys):
        prog = tmp_path / "prog.c"
        prog.write_text("void f(void) { throw tag; }\n")
        assert main(["expand", "-p", "exceptions", str(prog)]) == 0
        assert "longjmp" in capsys.readouterr().out

    def test_hygienic_flag(self, tmp_path, capsys):
        prog = tmp_path / "prog.c"
        prog.write_text(
            "syntax stmt g {| $$stmt::b |}"
            "{ return(`{{int saved = 0; $b;}}); }\n"
            "void f(void) { g w(); }\n"
        )
        assert main(["expand", "--hygienic", str(prog)]) == 0
        out = capsys.readouterr().out
        assert "int saved" not in out

    def test_error_reported_with_location(self, tmp_path, capsys):
        prog = tmp_path / "bad.c"
        prog.write_text("int x = ;\n")
        assert main(["expand", str(prog)]) == 1
        err = capsys.readouterr().err
        assert "bad.c" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["expand", str(tmp_path / "nope.c")]) == 1


class TestExpandObservability:
    def test_stats_json(self, program_file, capsys):
        assert main(["expand", "--stats-json", str(program_file)]) == 0
        err = capsys.readouterr().err
        payload = json.loads(err.splitlines()[-1])
        assert payload["expansions"] == 1
        assert "phases" not in payload  # timings live in trace spans

    def test_profile(self, program_file, capsys):
        assert main(["expand", "--profile", str(program_file)]) == 0
        rows = profile_rows(capsys.readouterr().err)
        assert rows["trace"][:2] == (1, 0)
        total = rows.pop("total")
        assert sum(row[3] for row in rows.values()) == pytest.approx(
            total[3], abs=1e-2
        )

    @pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
    def test_profile_runs_the_shipping_path(self, program, capsys):
        """Same bytes and the same compiled bodies as a plain run:
        the profile times the program users actually run."""
        runs = {}
        for flags in ([], ["--profile"]):
            assert main(["expand", "--stats-json", *flags,
                         str(program)]) == 0
            captured = capsys.readouterr()
            stats_line = next(
                line for line in captured.err.splitlines()
                if line.startswith("{")
            )
            runs[bool(flags)] = (
                captured.out, json.loads(stats_line)["bodies_compiled"]
            )
        assert runs[True] == runs[False]

    def test_annotate(self, program_file, capsys):
        assert main(["expand", "--annotate", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "/* <- trace @" in out
        assert "#line" in out


class TestTrace:
    def test_span_tree_printed(self, program_file, capsys):
        assert main(["trace", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "trace @" in out
        assert "[miss, compiled]" in out

    def test_profile_flag(self, program_file, capsys):
        assert main(["trace", "--profile", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "[miss, compiled]" in out
        assert profile_rows(out)["trace"][:2] == (1, 0)

    def test_jsonl_sink(self, program_file, tmp_path, capsys):
        log = tmp_path / "spans.jsonl"
        assert main(["trace", "--jsonl", str(log), str(program_file)]) == 0
        [record] = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert record["event"] == "span"
        assert record["macro"] == "trace"

    def test_example_script_mode(self, capsys):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parents[2]
            / "examples" / "quickstart.py"
        )
        assert main(["trace", str(example)]) == 0
        out = capsys.readouterr().out
        assert "Painting @" in out

    def test_failure_prints_partial_tree_and_backtrace(
        self, tmp_path, capsys
    ):
        prog = tmp_path / "bad.c"
        prog.write_text(
            "syntax exp boom {| ( ) |}"
            '{ error("dead"); return(`(0)); }\n'
            "int x = boom();\n"
        )
        assert main(["trace", str(prog)]) == 1
        captured = capsys.readouterr()
        assert "!!" in captured.out and "dead" in captured.out
        assert "expanded from boom" in captured.err


class TestMacros:
    def test_list_builtin_package(self, capsys):
        assert main(["macros", "-p", "exceptions"]) == 0
        out = capsys.readouterr().out
        assert "syntax stmt throw" in out
        assert "syntax stmt catch" in out

    def test_list_user_file(self, program_file, capsys):
        assert main(["macros", str(program_file)]) == 0
        assert "trace" in capsys.readouterr().out


class TestFigures:
    def test_prints_both_tables(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "(declaration (int) y)" in out
        assert "Syntactically Illegal Program" in out


def help_defaults(text: str) -> dict[str, str]:
    """``{flag: shown default}`` from an argparse ``--help`` text: the
    value after "default " in each long option's help, if any."""
    entries: list[str] = []
    for line in text.splitlines():
        if line.startswith("  -"):
            entries.append(line)
        elif entries and line.startswith("   "):
            entries[-1] += line
    defaults = {}
    for entry in entries:
        flag = entry.split()[0].rstrip(",")
        match = re.search(r"\bdefault ([^\s;)]+)", " ".join(entry.split()))
        if match is not None:
            defaults[flag] = match.group(1)
    return defaults


def test_help_defaults_are_the_config_defaults(capsys) -> None:
    """What ``repro build --help`` and ``repro serve --help`` print as
    defaults is ``CacheConfig()`` and ``ServeConfig()``."""
    from repro.driver.cacheconfig import CacheConfig
    from repro.serveconfig import ServeConfig

    cache, serve = CacheConfig(), ServeConfig()
    expected = {
        "build": {
            "--cache-dir": cache.local_dir,
            "--write-behind": cache.write_behind,
            "--remote-timeout-s": cache.remote_timeout_s,
        },
        "serve": {
            "--cache-dir": cache.local_dir,
            "--host": serve.host,
            "--shards": serve.shards,
            "--max-inflight": serve.max_inflight,
            "--queue-limit": serve.queue_limit,
            "--drain-s": serve.drain_s,
            "--max-frame-bytes": serve.max_frame_bytes,
            "--metrics-host": serve.metrics_host,
        },
    }
    for subcommand, values in expected.items():
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        shown = help_defaults(capsys.readouterr().out)
        for flag, value in values.items():
            assert type(value)(shown[flag]) == value, (subcommand, flag)


def test_default_cache_dir_has_one_home() -> None:
    from repro.driver import cacheconfig, diskcache

    assert diskcache.DEFAULT_CACHE_DIR is cacheconfig.DEFAULT_CACHE_DIR
