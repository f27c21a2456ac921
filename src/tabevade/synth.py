"""Seeded synthetic data: Gaussian blobs, a census-style table and demo
phishing/legitimate web pages.

Nothing here ships real data; everything is generated deterministically so
demos, tests and the acceptance suite are reproducible offline.
"""
from __future__ import annotations

import io

import numpy as np

from .data import (Dataset, FeatureSchema, FeatureSpec, atomic_directory, atomic_write_text, csv_text, format_number,
                   load_dataset)
from .webfeatures import WebPage, default_web_schema, extract_features


def gaussian_blobs(n_rows: int = 400, seed: int = 0, separation: float = 2.5) -> Dataset:
    """Two continuous features; class means differ by ``separation`` units."""
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    pos = rng.normal(0.0, 1.0, size=(half, 2))
    neg = rng.normal(separation, 1.0, size=(n_rows - half, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(half, dtype=int), np.zeros(n_rows - half, dtype=int)])
    order = rng.permutation(n_rows)
    schema = FeatureSchema(
        features=(FeatureSpec("x0", "continuous"), FeatureSpec("x1", "continuous")),
        target_column="label",
        positive_class_label="attacked",
        negative_class_label="benign",
    )
    return Dataset(X=X[order], y=y[order], schema=schema)


# ---------------------------------------------------------------------------
# census-style tabular data (14 raw columns, 6 numeric + 8 categorical)

# the raw columns in CSV order, with their kinds
_CENSUS_COLUMNS = (
    ("age", "discrete"),
    ("employer_type", "categorical"),
    ("weight_index", "continuous"),
    ("education_level", "categorical"),
    ("education_years", "discrete"),
    ("marital_status", "categorical"),
    ("occupation", "categorical"),
    ("household_role", "categorical"),
    ("home_region", "categorical"),
    ("work_schedule", "categorical"),
    ("capital_gain", "continuous"),
    ("capital_loss", "continuous"),
    ("hours_per_week", "discrete"),
    ("income_source", "categorical"),
)

# in draw order, each categorical column's values and their weights for high earners, then for low ones
_CENSUS_CATEGORIES = {
    "employer_type": (("private", "public", "self_employed", "nonprofit"),
                      (0.55, 0.2, 0.2, 0.05), (0.7, 0.15, 0.05, 0.1)),
    "education_level": (("basic", "secondary", "college", "graduate", "postgraduate"),
                        (0.02, 0.13, 0.35, 0.35, 0.15), (0.2, 0.45, 0.25, 0.08, 0.02)),
    "marital_status": (("married", "single", "divorced", "widowed"), (0.75, 0.1, 0.1, 0.05), (0.3, 0.45, 0.15, 0.1)),
    "occupation": (("management", "professional", "clerical", "service", "trade"),
                   (0.35, 0.35, 0.1, 0.1, 0.1), (0.08, 0.12, 0.25, 0.35, 0.2)),
    "household_role": (("head", "partner", "child", "other"), (0.6, 0.25, 0.05, 0.1), (0.3, 0.2, 0.3, 0.2)),
    "work_schedule": (("full_time", "part_time"), (0.92, 0.08), (0.7, 0.3)),
    "home_region": (("north", "south", "east", "west"), (0.3, 0.2, 0.25, 0.25), (0.25, 0.3, 0.25, 0.2)),
    "income_source": (("salary", "business", "mixed"), (0.6, 0.25, 0.15), (0.85, 0.05, 0.1)),
}


def census_like_rows(n_rows: int = 3000, seed: int = 0):
    """Raw CSV rows (header included) for the census-style dataset, 30% of them "high"."""
    rng = np.random.default_rng(seed)
    schema = census_like_schema()
    rows = [[*schema.names, schema.target_column]]
    for _ in range(n_rows):
        high = rng.random() < 0.3
        cells = {  # drawn in this order, then placed by name
            "age": str(int(np.clip(round(rng.normal(45 if high else 35, 9 if high else 11)), 18, 90))),
            "education_years": str(int(np.clip(round(rng.normal(13.5 if high else 9.5, 2.0 if high else 2.4)), 1, 18))),
            "hours_per_week": str(int(np.clip(round(rng.normal(46 if high else 36, 7 if high else 9)), 5, 90))),
            "capital_gain": format_number(round(max(0.0, rng.normal(6000, 4000)) if (high and rng.random() < 0.45)
                                                else max(0.0, rng.normal(150, 350)), 2)),
            "capital_loss": format_number(round(max(0.0, rng.normal(1200, 700)) if (high and rng.random() < 0.12)
                                                else 0.0, 2)),
            "weight_index": format_number(round(rng.normal(100.0, 15.0), 3)),  # uninformative noise
        }
        for column, (values, *weights) in _CENSUS_CATEGORIES.items():
            cells[column] = values[rng.choice(len(values), p=weights[0 if high else 1])]
        label = schema.positive_class_label if high else schema.negative_class_label
        rows.append([*(cells[name] for name in schema.names), label])
    return rows


def census_like_schema() -> FeatureSchema:
    """Raw (pre-expansion) schema for the census-style CSV."""
    return FeatureSchema(
        features=tuple(FeatureSpec(name, kind) for name, kind in _CENSUS_COLUMNS),
        target_column="income",
        positive_class_label="high",
        negative_class_label="low",
    )


def census_like(n_rows: int = 3000, seed: int = 0) -> Dataset:
    """The census-style dataset loaded and one-hot expanded."""
    return load_dataset(io.StringIO(csv_text(census_like_rows(n_rows=n_rows, seed=seed))), census_like_schema())


# ---------------------------------------------------------------------------
# demo web pages

_SUSPICIOUS_SNIPPETS = (
    "Please submit your cardnumber and cvv to register.",
    "Log in now to verify your prepaid balance.",
    "Sign up with your email to continue. Register today.",
)

_BENIGN_PARAGRAPH = (
    "Our catalogue covers seasonal collections, detailed guides, careful "
    "reviews and weekly interviews with makers from around the world. "
)


def _phishing_page(rng: np.random.Generator, index: int) -> WebPage:
    # URL shapes overlap with the benign ones so HTML structure matters too
    scheme = "https" if rng.random() < 0.5 else "http"
    host = f"www.portal{index}.example.net" if rng.random() < 0.4 else f"portal-{rng.integers(10, 99)}.example-{index}.top"
    url = f"{scheme}://{host}/account/verify"
    links = "".join(f'<a href="/go/{k}">link</a>' for k in range(int(rng.integers(0, 4))))
    body_text = _SUSPICIOUS_SNIPPETS[int(rng.integers(0, len(_SUSPICIOUS_SNIPPETS)))]
    filler = f"<p>{_BENIGN_PARAGRAPH * int(rng.integers(1, 3))}</p>"
    html = (
        "<html><head><title>Account verify</title></head><body>"
        f"<h1>Verify your account</h1><p>{body_text}</p>{filler}"
        f'<form action="#"><input type="text" name="user">'
        f'<input type="password" name="pass"></form>{links}'
        "<script>document.onmouseover=1;</script>"
        "</body></html>"
    )
    return WebPage(url=url, html=html)


def _benign_page(rng: np.random.Generator, index: int) -> WebPage:
    scheme = "https" if rng.random() < 0.8 else "http"
    host = f"www.shop{index}.example.org" if rng.random() < 0.6 else f"shop-{index}.example-market.org"
    url = f"{scheme}://{host}/catalogue"
    n_links = int(rng.integers(25, 60))
    n_images = int(rng.integers(8, 25))
    n_meta = int(rng.integers(4, 10))
    n_scripts = int(rng.integers(3, 9))
    n_mailto = int(rng.integers(1, 4))
    n_hidden = int(rng.integers(2, 7))
    paragraphs = int(rng.integers(3, 9))
    links = "".join(f'<a href="/item/{k}">item {k}</a>' for k in range(n_links))
    images = "".join(f'<img src="/static/img{k}.png" alt="img{k}">' for k in range(n_images))
    metas = "".join(f'<meta name="meta{k}" content="v{k}">' for k in range(n_meta))
    scripts = "".join(f"<script>var v{k} = {k};</script>" for k in range(n_scripts))
    mailtos = "".join(f'<a href="mailto:desk{k}@shop{index}.example.org">contact</a>' for k in range(n_mailto))
    hidden = "".join(f'<input type="hidden" name="state{k}" value="{k}">' for k in range(n_hidden))
    tracker = '<script>if(window.old){window.location.replace("/catalogue");}</script>' if rng.random() < 0.5 else ""
    newsletter = (
        f'<form action="/newsletter"><input type="text" name="mail"></form>' if rng.random() < 0.6 else ""
    )
    text = "".join(f"<p>{_BENIGN_PARAGRAPH * 2}</p>" for _ in range(paragraphs))
    html = (
        f"<html><head><title>Catalogue</title>{metas}</head><body>"
        f"<h1>Welcome</h1>{text}{links}{images}{scripts}{mailtos}{tracker}"
        f'<iframe src="https://player.example.org/embed" width="300" height="200"></iframe>'
        f'<form action="{scheme}://{host}/search"><input type="text" name="q">{hidden}</form>{newsletter}'
        "</body></html>"
    )
    return WebPage(url=url, html=html)


def demo_pages(n_phishing: int = 20, n_benign: int = 20, seed: int = 0):
    """Named (page, label) pairs; label 1 marks the phishing/input class."""
    rng = np.random.default_rng(seed)
    corpus: list[tuple[str, WebPage, int]] = []
    for i in range(n_phishing):
        corpus.append((f"phish_{i:03d}", _phishing_page(rng, i), 1))
    for i in range(n_benign):
        corpus.append((f"benign_{i:03d}", _benign_page(rng, i), 0))
    return corpus


def web_demo_dataset(corpus) -> Dataset:
    """Extract every page into the 52-feature space and label it.

    Each page is extracted from a copy, so the corpus pages cache no parse.
    """
    schema = default_web_schema()
    X = np.vstack([extract_features(WebPage(page.url, page.html)).values for _, page, _ in corpus])
    y = np.array([label for _, _, label in corpus], dtype=int)
    return Dataset(X=X, y=y, schema=schema)


def write_page_corpus(corpus, out_dir) -> None:
    """Write pages as <name>.html plus a <name>.html.url sidecar and labels.csv, as one directory.

    ``out_dir`` must be absent or empty.  labels.csv, written last and synced, vouches for the rest.
    """
    labels = [["page", "label"]]
    with atomic_directory(out_dir) as out:
        for name, page, label in corpus:
            (out / f"{name}.html").write_text(page.html, encoding="utf-8", newline="")
            (out / f"{name}.html.url").write_text(page.url + "\n", encoding="utf-8", newline="")
            labels.append([f"{name}.html", "phishing" if label == 1 else "legitimate"])
        atomic_write_text(out / "labels.csv", csv_text(labels, "\r\n"))
