"""Input generation and the forged-page check, run as children of run.py.

    python3 perfbench/inputs.py census WORK SEED ROWS
    python3 perfbench/inputs.py pages WORK SEED PER_CLASS
    python3 perfbench/inputs.py check-pages ORIGINALS FORGED

Each prints one JSON object.  These steps need tabevade and numpy, so they
run in children: run.py itself imports only the standard library.  Linux
carries the resident size of the launching process into a child's peak RSS
(fork copies it, exec keeps the high-water mark), so a parent holding numpy
or a page corpus would inflate ``peak_rss_mb`` of the command it launches.
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

from tabevade import save_schema, synth
from tabevade.data import save_dataset_csv
from tabevade.webfeatures import default_web_schema, element_sequence


def census(work: Path, seed: int, rows: int) -> dict:
    """A census-like CSV and its schema, as `tabevade synth --dataset census` writes them."""
    data = work / "data.csv"
    with open(data, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(synth.census_like_rows(rows, seed=seed))
    save_schema(synth.census_like_schema(), work / "schema.json")
    return {"rows": rows, "csv_bytes": data.stat().st_size}


def pages(work: Path, seed: int, per_class: int) -> dict:
    """A demo page corpus with .html.url sidecars, plus its 52-feature training CSV."""
    corpus = synth.demo_pages(per_class, per_class, seed=seed)
    synth.write_page_corpus(corpus, work / "pages")
    save_dataset_csv(synth.web_demo_dataset(corpus), work / "data.csv")
    save_schema(default_web_schema(), work / "schema.json")
    html_bytes = sum(p.stat().st_size for p in (work / "pages").glob("*.html"))
    return {"pages": len(corpus), "html_bytes": html_bytes}


def runtime() -> dict:
    """Versions the children run with: python, numpy and numpy's BLAS."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas_name}


def _is_subsequence(short: list, long: list) -> bool:
    it = iter(long)
    return all(item in it for item in short)


def check_pages(originals: Path, forged: Path) -> dict:
    """Every forged page holds its original's element sequence, in order."""
    problems = []
    for original in sorted(originals.glob("*.html")):
        target = forged / original.name
        if not target.is_file():
            problems.append(f"forged page {original.name} is missing")
        elif not _is_subsequence(element_sequence(original.read_text(encoding="utf-8")),
                                 element_sequence(target.read_text(encoding="utf-8"))):
            problems.append(f"forged page {original.name} is not its original plus additions")
    return {"problems": problems}


def main(argv: list[str]) -> int:
    command, *rest = argv
    if command == "check-pages":
        result = check_pages(Path(rest[0]), Path(rest[1]))
    else:
        make = {"census": census, "pages": pages}[command]
        result = {"inputs": make(Path(rest[0]), int(rest[1]), int(rest[2])), "runtime": runtime()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
