"""CLI output pinned byte for byte: tools/identity.py's hashes over its seeded corpus."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# group -> (runs, sha256); a deliberate change to any CLI output must update its group and all
DIGESTS = {
    "find": (384, "59511037a1b949730308c08cb953e1ae6a28cf1801a9e7e9006e37c59b02c3ca"),
    "check": (1024, "35173b8922a385b00a50326a927ef8db69ddf1106b501c3a872988354f622b26"),
    "vector": (1024, "3baf8ee6af9f8d3a8ab41f894885dc0cfe6410dc8143c4965ab370860a356b99"),
    "prescribe": (768, "a4c8ea10a9663140a6f87c1d54de7065b1cc5e2392f062f74e1ff38b94decf78"),
    "compose": (256, "0be92b6fc8da9992404d14579c131f703eec239aadeba3d9af45134dae7fbb64"),
    "weight3": (384, "7caa3e8ec7de7428ed721e62ee987080eb2ffb62f9bf26181a0bea53a4baa6d4"),
    "force-beta": (10, "c6a67a3c06690fd027963e8d1a206e18dcbfae5ecdbc7d5e46ed507412093c2b"),
    "audit": (122, "e61b5224c9a604207f9dbc4c7ec754a49551990e2a3639efc52f9d81766e47fc"),
    "errors": (62, "17e71b5c95560229066e12fa3e8d1b390430406cbafd22fdcad080db0ee49a66"),
    "pow": (264, "7245b022597cd183b1b11bf0f451d9d38a1086859865bd4b8f990784fbfe9b10"),
    "invalid": (76, "f8209e0ff4d4cac15ac557702e5a146fa3619a26666a3c1188eda0bc66075fa6"),
    "all": (4374, "bc2af081a9b25511d4fd3823e90377ab28179aa638253ccb6a77b75175113f0b"),
}


def test_cli_output_matches_the_recorded_digest():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "tools/identity.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    got = {name: (int(runs), sha) for name, runs, sha in
           (line.split() for line in done.stdout.splitlines()[1:])}
    moved = [name for name in DIGESTS.keys() | got.keys() if got.get(name) != DIGESTS.get(name)]
    assert not moved, f"groups whose output moved: {sorted(moved)}"
