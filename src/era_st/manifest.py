"""Line-based key=value manifest shared by the builder, verifier, and CLI."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import IndexCorruptError

MANIFEST_NAME = "manifest.txt"
MANIFEST_VERSION = 1


@dataclass
class Manifest:
    version: int
    n: int
    sigma: int
    m: int
    b: int
    p: int
    max_prefix_len: int
    rng_seed: int
    text_digest: str
    vtree_count: int
    alphabet_map: dict[int, int] | None = None

    def to_lines(self) -> list[str]:
        lines = [
            f"version={self.version}",
            f"n={self.n}",
            f"sigma={self.sigma}",
            f"m={self.m}",
            f"b={self.b}",
            f"p={self.p}",
            f"max_prefix_len={self.max_prefix_len}",
            f"rng_seed={self.rng_seed}",
            f"text_digest={self.text_digest}",
            f"vtree_count={self.vtree_count}",
        ]
        if self.alphabet_map:
            pairs = ",".join(f"{k}:{v}" for k, v in sorted(self.alphabet_map.items()))
            lines.append(f"alphabet_map={pairs}")
        return lines

    def write(self, index_dir: str | Path) -> Path:
        path = Path(index_dir) / MANIFEST_NAME
        path.write_text("\n".join(self.to_lines()) + "\n")
        return path


def read_manifest(index_dir: str | Path) -> Manifest:
    path = Path(index_dir) / MANIFEST_NAME
    if not path.exists():
        raise IndexCorruptError(f"{path}: missing manifest")
    try:
        content = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexCorruptError(f"{path}: manifest is not UTF-8 text ({exc})") from exc
    fields: dict[str, str] = {}
    for lineno, line in enumerate(content.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise IndexCorruptError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        fields[key] = value
    try:
        alphabet_map = None
        if fields.get("alphabet_map"):
            alphabet_map = {}
            for pair in fields["alphabet_map"].split(","):
                k, v = pair.split(":")
                alphabet_map[int(k)] = int(v)
        return Manifest(
            version=int(fields["version"]),
            n=int(fields["n"]),
            sigma=int(fields["sigma"]),
            m=int(fields["m"]),
            b=int(fields["b"]),
            p=int(fields["p"]),
            max_prefix_len=int(fields["max_prefix_len"]),
            rng_seed=int(fields["rng_seed"]),
            text_digest=fields["text_digest"],
            vtree_count=int(fields["vtree_count"]),
            alphabet_map=alphabet_map,
        )
    except (KeyError, ValueError) as exc:
        raise IndexCorruptError(f"{path}: malformed manifest ({exc})") from exc
