"""The README's examples run as written: its ``python`` blocks in one
namespace, its protocol block through ``mpst check`` and its scenario
block through ``mpst simulate``."""

from __future__ import annotations

import re
from pathlib import Path

from mpst.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _text_block(first_word: str) -> str:
    (block,) = [b for b in _blocks("text") if b.startswith(first_word + " ")]
    return block


def test_python_blocks_run_in_one_namespace():
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_protocol_block_checks_and_scenario_block_runs_conformant(tmp_path, capsys):
    protocol, scenario = tmp_path / "oauth.mpst", tmp_path / "ok.scn"
    protocol.write_text(_text_block("protocol"))
    scenario.write_text(_text_block("scenario"))
    assert main(["check", str(protocol)]) == 0
    assert "protocol oAuth: well-formed" in capsys.readouterr().out
    assert main(["simulate", str(protocol), str(scenario)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: conformant"
