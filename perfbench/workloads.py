"""The benchmark's workloads: the inputs each one generates, its op and its pins.

Every op is one ``treespec.cli.main(argv)`` call, exactly what a user runs.
Inputs come only from the workload seed. ``full`` is the benchmark size;
``smoke`` is a reduced size for the benchmark's own test.

Run as a script, this module generates one workload's inputs in a fresh
process; the benchmark times that as set-up::

    python3 perfbench/workloads.py <workload> <seed> <size> <dest>
"""

from __future__ import annotations

import hashlib
import io
import random
import string
import sys
from contextlib import redirect_stdout
from pathlib import Path

from treespec import cli

_REFERENCE_OUTPUTS = {
    "records.csv": "96dab7e8b6adc33c4bb741f905d6c0d74a0f1d319cdf6ba6216f1fba85696c03",
    "summary.json": "5dfcd4f92e18a0e6b22a0126e4565d6da824916c2f24e2546926a4539def92ec",
    "tables.txt": "9641a75d5cba823794fe18d40fb9217479b6cfd22f6b871fe081b009031b81c7",
}

# sha256 of each op's outputs at full size, keyed by (workload, seed). They
# were produced with numpy 2.4.6 on x86-64 Linux. To regenerate one, delete
# its entry and run the workload at that seed: the run prints the hashes.
PINNED = {
    ("reference", 42): _REFERENCE_OUTPUTS,
    ("reanalyze", 42): {k: v for k, v in _REFERENCE_OUTPUTS.items() if k != "records.csv"},
    ("open_vocab", 42): {
        "records.csv": "fa0bc6178e5dcf700f3ae43b3c396be8b8a910b07c799491ffaf5058c54cfab1",
        "summary.json": "7b972884f00a89eb6c14c8d279205ff936ed1e14cef06439ae3a1032e40aae9e",
        "tables.txt": "74c53f8b759d07b17ee823fdf6d1f1738dfc78e4573558aa4f6badd6d8dcc9da",
    },
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Workload:
    name = ""
    outputs: tuple[str, ...] = ("records.csv", "summary.json", "tables.txt")
    # (metric, descriptor): throughput is that descriptor's count per op second.
    throughput = ("steps_per_s", "steps")

    def prepare(self, dest: Path, seed: int, size: str) -> None:
        """Write this workload's inputs into ``dest`` (which exists and is empty)."""

    def argv(self, inputs: Path, out: Path, seed: int, size: str) -> list[str]:
        raise NotImplementedError

    def expected(self, inputs: Path, seed: int, size: str) -> dict[str, str] | None:
        """Output hashes every op must match; None means 'match the first op'."""
        pinned = PINNED.get((self.name, seed)) if size == "full" else None
        return pinned or None

    def meta_path(self, inputs: Path, out: Path) -> Path:
        """The meta.json that gives this workload's steps, records and vocabularies."""
        return out / "meta.json"


class Reference(Workload):
    name = "reference"

    def argv(self, inputs: Path, out: Path, seed: int, size: str) -> list[str]:
        argv = ["run", "--synthetic", "--out", str(out), "--seed", str(seed)]
        if size == "smoke":
            argv += ["--synthetic-docs", "20", "--prompts-per-domain", "3", "--max-new-tokens", "6"]
        return argv


# Markov-chain corpora: per domain, `types` word types, each with `successors`
# seeded successors drawn with 1/rank weights; `docs` documents of `doc_len`
# tokens each. Sparse successors over a large vocabulary keep generation
# windows from repeating, which is what this workload is for.
_OPEN_VOCAB = {
    "full": {"types": 4000, "successors": 8, "docs": 200, "doc_len": 600, "prompts": 150, "steps": 8},
    "smoke": {"types": 300, "successors": 8, "docs": 30, "doc_len": 200, "prompts": 10, "steps": 4},
}
_OPEN_VOCAB_DOMAINS = ("forum", "wiki")


def _word_types(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8))))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


class OpenVocab(Workload):
    name = "open_vocab"

    def prepare(self, dest: Path, seed: int, size: str) -> None:
        shape = _OPEN_VOCAB[size]
        n_types, n_succ = shape["types"], shape["successors"]
        weights = [1.0 / (rank + 1) for rank in range(n_succ)]
        for domain in _OPEN_VOCAB_DOMAINS:
            rng = random.Random(f"{domain}-{seed}")
            words = _word_types(rng, n_types)
            successors = [rng.sample(range(n_types), n_succ) for _ in range(n_types)]
            folder = dest / "data" / domain
            folder.mkdir(parents=True)
            for doc in range(shape["docs"]):
                token = rng.randrange(n_types)
                tokens = []
                for _ in range(shape["doc_len"]):
                    tokens.append(words[token])
                    token = rng.choices(successors[token], weights)[0]
                (folder / f"doc{doc:04d}.txt").write_text(" ".join(tokens) + "\n", encoding="utf-8")
        (dest / "config.txt").write_text(
            f"seed = {seed}\n"
            "max_depth = 4\n"
            "root_top_k = 4\n"
            "max_nodes = 16\n"
            "target_order = 4\n"
            f"prompts_per_domain = {shape['prompts']}\n"
            f"max_new_tokens = {shape['steps']}\n",
            encoding="utf-8",
        )

    def argv(self, inputs: Path, out: Path, seed: int, size: str) -> list[str]:
        return ["run", "--data", str(inputs / "data"), "--config", str(inputs / "config.txt"),
                "--out", str(out)]


class Reanalyze(Workload):
    name = "reanalyze"
    outputs = ("summary.json", "tables.txt")
    throughput = ("records_per_s", "records")

    def prepare(self, dest: Path, seed: int, size: str) -> None:
        argv = Reference().argv(dest, dest / "reference", seed, size)
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"treespec {' '.join(argv)} exited {code}")

    def argv(self, inputs: Path, out: Path, seed: int, size: str) -> list[str]:
        return ["analyze", "--records", str(inputs / "reference" / "records.csv"), "--out", str(out)]

    def expected(self, inputs: Path, seed: int, size: str) -> dict[str, str] | None:
        # The op must reproduce the run's own summary and tables byte for byte.
        return super().expected(inputs, seed, size) or {
            name: sha256_file(inputs / "reference" / name) for name in self.outputs
        }

    def meta_path(self, inputs: Path, out: Path) -> Path:
        return inputs / "reference" / "meta.json"


WORKLOADS = {w.name: w for w in (Reference(), OpenVocab(), Reanalyze())}


if __name__ == "__main__":
    name, seed, size, dest = sys.argv[1:]
    WORKLOADS[name].prepare(Path(dest), int(seed), size)
