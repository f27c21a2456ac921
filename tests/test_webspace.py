import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from tabevade import synth
from tabevade.attack import AttackConfig, build_plan
from tabevade.errors import InfeasibleInjectionError, SchemaError, UnsupportedFeatureError
from tabevade.models import fit, predict
from tabevade.synth import demo_pages, web_demo_dataset, write_page_corpus
from tabevade.webfeatures import (
    ADDABLE_WEB_FEATURES,
    WEB_FEATURE_NAMES,
    WebFeatureVector,
    WebPage,
    default_web_schema,
    element_sequence,
    extract_features,
)
from oracles import is_display_suppressed, splice_points_reference
from test_webfeatures import _near_grammar_documents
from tabevade import pageparse
from tabevade.pageparse import collect_events
from tabevade.webspace import (
    CONTAINER_ATTR,
    InjectionPlan,
    inject,
    plan_injection,
    problem_space_attack,
)

SCHEMA = default_web_schema()

SAMPLE = WebPage(
    url="http://portal-77.example.top/account",
    html=(
        "<html><head><title>t</title><meta name='m' content='1'></head>"
        "<body><p>hello there</p><a href='/x'>x</a>"
        "<form action='#'><input type='password' name='p'></form>"
        "</body></html>"
    ),
)


def vector_with(base: WebFeatureVector, **changes) -> WebFeatureVector:
    values = base.values.copy()
    for name, value in changes.items():
        values[WEB_FEATURE_NAMES.index(name)] = value
    return WebFeatureVector(values=values)


# ---------------------------------------------------------------------------
# plan_injection

def test_plan_injection_differences_addable_features():
    original = extract_features(SAMPLE)
    adversarial = vector_with(original, href=original["href"] + 3)
    plan = plan_injection(original, adversarial, SCHEMA)
    assert plan.additions == {"href": 3}


def test_plan_injection_identical_vectors_empty():
    original = extract_features(SAMPLE)
    plan = plan_injection(original, original, SCHEMA)
    assert plan.is_empty


def test_plan_injection_url_feature_change_is_infeasible():
    original = extract_features(SAMPLE)
    adversarial = vector_with(original, no_dir=max(original["no_dir"] - 1, 0))
    with pytest.raises(InfeasibleInjectionError, match="no_dir"):
        plan_injection(original, adversarial, SCHEMA)


def test_plan_injection_negative_addable_delta_floors_to_zero():
    original = extract_features(SAMPLE)
    adversarial = vector_with(original, href=0.0)
    plan = plan_injection(original, adversarial, SCHEMA)
    assert "href" not in plan.additions


def test_plan_injection_names_the_first_infeasible_move_in_table_order():
    original = extract_features(SAMPLE)
    adversarial = vector_with(original, no_dash=original["no_dash"] + 1, href=original["href"] + 2,
                              url_len=original["url_len"] + 4)
    with pytest.raises(InfeasibleInjectionError, match="'url_len' changed by \\+4"):
        plan_injection(original, adversarial, SCHEMA)


def test_plan_injection_refuses_a_schema_over_other_features_or_order():
    original = extract_features(SAMPLE)
    adversarial = vector_with(original, href=original["href"] + 1)
    reordered = dataclasses.replace(SCHEMA, features=SCHEMA.features[::-1])
    for schema in (synth.census_like_schema(), reordered):
        with pytest.raises(SchemaError, match="52 page features, in table order"):
            plan_injection(original, adversarial, schema)


def test_injection_plan_rejects_negative_counts():
    with pytest.raises(InfeasibleInjectionError):
        InjectionPlan(additions={"href": -1})


# ---------------------------------------------------------------------------
# inject

def container_children(html: str):
    events = collect_events(html)
    inside = []
    depth = 0
    for tag, attrs, _ in events.elements:
        if CONTAINER_ATTR in attrs:
            depth = 1
            continue
        if depth:
            inside.append((tag, attrs))
    return inside


def test_inject_empty_plan_is_byte_identical():
    out = inject(SAMPLE, InjectionPlan(additions={}))
    assert out.html == SAMPLE.html
    assert out.url == SAMPLE.url


def test_inject_three_anchors_in_hidden_container():
    out = inject(SAMPLE, InjectionPlan(additions={"href": 3}))
    kids = container_children(out.html)
    assert [t for t, _ in kids] == ["a", "a", "a"]
    assert all("href" in attrs for _, attrs in kids)


def test_inject_meta_into_head_and_iframe_into_container():
    out = inject(SAMPLE, InjectionPlan(additions={"meta": 2, "iframes": 1}))
    events = collect_events(out.html)
    head_metas = [1 for tag, _, in_head in events.elements if tag == "meta" and in_head]
    assert len(head_metas) == 3  # the original one plus two injected
    kids = container_children(out.html)
    assert [t for t, _ in kids] == ["iframe"]


def test_inject_unknown_feature_rejected():
    with pytest.raises(UnsupportedFeatureError):
        inject(SAMPLE, InjectionPlan(additions={"text_in_body": 5}))


def test_inject_grows_document():
    out = inject(SAMPLE, InjectionPlan(additions={"images": 1}))
    assert len(out.html) > len(SAMPLE.html)


def test_inject_handles_pages_without_head_or_body():
    bare = WebPage(url="http://x.example", html="<p>just text</p>")
    out = inject(bare, InjectionPlan(additions={"meta": 1, "href": 1}))
    vec = extract_features(out)
    assert vec["meta"] == 1
    assert vec["href"] == 1
    assert out.html.startswith("<p>just text</p>")


# "|" marks where the container must go
@pytest.mark.parametrize("marked", [
    "<html><body>x|</body><!-- moved </body> --></html>",
    "<html><body>x|</body><script>var s = '</body></html>';</script></html>",
    "<html><body><p title='</body>'>x</p>|</body></html>",
    "<html><head><title>t</title></head><body>x<style>/* </head></body> */</style>|</body></html>",
    '<html><body>x|</body><p title="a>b</body>"></p></html>',
    # markup left unfinished at the end of the page
    "<html><body>x|<!-- never closed </body></html>",
    "<html><body>x|</body><!-- never closed </html>",
    "<html><body>x|<!-- never closed > </body></html>",
    "<p>x|<!-- never closed",
    "<p>x|<script>var never_closed = 1;",
    # end tags and pages outside plain markup
    "<html><body>x|</BODY></html>",
    "<html><body>x|</body ></html>",
    "<html><body>x<body/>y|</body></html>",
    "<html><body>a &amp; b|</body><body/></html>",
    "<html><body>a &amp; b|</body></html>",
    "<!DOCTYPE html><html><head><title>t</title></head><body>x|</body></html>",
])
def test_inject_lands_before_the_last_real_end_tag(marked):
    before, after = marked.split("|")
    out = inject(WebPage(url="http://x.example", html=before + after), InjectionPlan(additions={"href": 2}))
    assert out.html.startswith(before + f"<div {CONTAINER_ATTR}=")
    assert out.html.endswith("</div>" + after)
    assert extract_features(out)["href"] == 2


def test_inject_places_plain_pages_without_parsing(monkeypatch):
    """Plain pages take their splice points from the tokenizer, where a parse would put them."""
    pages = [page for _, page, _ in demo_pages(20, 20, seed=3)] + [SAMPLE]
    expected = [splice_points_reference(page.html) for page in pages]

    def refuse(html):
        raise AssertionError("a plain page was parsed")

    monkeypatch.setattr(pageparse, "_Collector", refuse)
    for page, (head, body) in zip(pages, expected):
        assert (page.events.head_end, page.events.body_end) == (head, body)
        out = inject(page, InjectionPlan(additions={"href": 1}))
        assert out.html.startswith(page.html[:body] + f"<div {CONTAINER_ATTR}=")
        assert out.html.endswith("</div>" + page.html[body:])


# end tags that are not real: in a comment, a script, an attribute value, an unclosed comment
_FAKE_END_TAGS = (
    lambda h: h.replace("</body>", "</body><!-- </body></html> -->"),
    lambda h: h.replace("</body>", "</body><script>'</body>'</script>"),
    lambda h: h.replace("<body>", "<body><p title='</head></body>'>t</p>", 1),
    lambda h: h.replace("</body>", '</body><p title="a>b</body>"></p>'),
    lambda h: h + "<!-- left open </body>",
    lambda h: h,
)


def test_inject_splices_where_a_parse_would_on_near_grammar_pages():
    for i, page in enumerate(_near_grammar_documents(200, seed=5)):
        page = WebPage(url=page.url, html=_FAKE_END_TAGS[i % len(_FAKE_END_TAGS)](page.html))
        assert (page.events.head_end, page.events.body_end) == splice_points_reference(page.html), page.html
        before = extract_features(page)
        after = extract_features(inject(page, InjectionPlan(additions={"href": 2, "meta": 1})))
        assert (after["href"], after["meta"]) == (before["href"] + 2, before["meta"] + 1), page.html


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)


@pytest.mark.parametrize("feature", ADDABLE_WEB_FEATURES)
def test_single_feature_additivity(feature):
    original = extract_features(SAMPLE)
    out = inject(SAMPLE, InjectionPlan(additions={feature: 4}))
    reextracted = extract_features(out)
    assert reextracted[feature] >= original[feature] + 4
    if feature in ("meta", "iframes"):
        assert reextracted[feature] == original[feature] + 4
    # nothing is ever removed
    for name in WEB_FEATURE_NAMES:
        if name in ("alph_digit_ratio", "host_dig_let_ratio", "vowel_constant_ratio"):
            continue
        assert reextracted[name] >= original[name], name
    assert _is_subsequence(element_sequence(SAMPLE.html), element_sequence(out.html))


def test_anchor_injection_raises_url_of_anchor_side_effect():
    original = extract_features(SAMPLE)
    out = extract_features(inject(SAMPLE, InjectionPlan(additions={"href": 5})))
    assert out["url_of_anchor"] >= original["url_of_anchor"] + 5


def test_invisibility_proxy():
    plan = InjectionPlan(additions={"href": 2, "meta": 1, "images": 1, "redirects": 1})
    out = inject(SAMPLE, plan)
    original_events = collect_events(SAMPLE.html).elements
    injected_events = collect_events(out.html).elements

    visible_original = [(t, tuple(sorted(a.items()))) for t, a, _ in original_events if not is_display_suppressed(a)]
    visible_injected = [(t, tuple(sorted(a.items()))) for t, a, _ in injected_events if not is_display_suppressed(a)]
    # injected meta rides in the head; every other injected node is suppressed
    visible_injected = [e for e in visible_injected if e[0] != "meta"]
    visible_original = [e for e in visible_original if e[0] != "meta"]
    assert visible_injected == visible_original

    # every new node is either head metadata or inside the hidden container
    container_depth = 0
    seen_new = []
    original_iter = iter(original_events)
    pending = list(original_events)
    idx = 0
    for tag, attrs, in_head in injected_events:
        if CONTAINER_ATTR in attrs:
            container_depth = 1
            continue
        if idx < len(pending) and (tag, attrs) == (pending[idx][0], pending[idx][1]):
            idx += 1
            continue
        seen_new.append((tag, attrs, in_head, container_depth))
    for tag, attrs, in_head, in_container in seen_new:
        assert in_container or (tag == "meta" and in_head)


# ---------------------------------------------------------------------------
# problem_space_attack

def web_fixture(seed=0):
    corpus = demo_pages(30, 30, seed=seed + 50)
    ds = web_demo_dataset(corpus)
    model = fit("logistic_regression", ds, seed=0)
    mask = frozenset(ds.schema.addable_indices())
    return ds, model, mask


def test_problem_space_zero_epsilon_is_identity():
    ds, model, mask = web_fixture()
    plan = build_plan(ds, AttackConfig(n=3, epsilon=0.0, feature_mask=mask), seed=0)
    page = demo_pages(1, 0, seed=9)[0][1]
    forged, record = problem_space_attack(page, plan, model)
    assert forged.html == page.html
    assert record.baseline_label == record.attack_label
    assert not record.planned


def test_problem_space_requires_addable_mask():
    ds, model, _ = web_fixture()
    plan = build_plan(ds, AttackConfig(n=3, epsilon=1.0), seed=0)  # no mask
    page = demo_pages(1, 0, seed=9)[0][1]
    with pytest.raises(InfeasibleInjectionError):
        problem_space_attack(page, plan, model)


def test_problem_space_counts_side_effects():
    ds, model, mask = web_fixture()
    plan = build_plan(ds, AttackConfig(n=6, epsilon=4.0, method="gini_impurity", feature_mask=mask), seed=0)
    page = demo_pages(1, 0, seed=11)[0][1]
    forged, record = problem_space_attack(page, plan, model)
    assert record.planned  # a strong budget must inject something
    reextracted = extract_features(forged)
    original = extract_features(page)
    for name, count in record.planned.items():
        assert reextracted[name] >= original[name] + count
    if "href" in record.planned:
        assert record.side_effects.get("url_of_anchor", 0) >= record.planned["href"]


def test_problem_space_flips_some_demo_pages():
    ds, model, mask = web_fixture()
    plan = build_plan(ds, AttackConfig(n=9, epsilon=6.0, method="gini_impurity", feature_mask=mask), seed=0)
    flips = 0
    for _, page, _ in demo_pages(10, 0, seed=2):
        _, record = problem_space_attack(page, plan, model)
        flips += record.evaded
    assert flips >= 1


# sha256 over "<name>\n<forged html>\n" for each page, in corpus order
FORGED_PAGES_SHA256 = "54fc9ee56ee4dbe93eaa20f54ff14a3ad02c81aa055bfd521ba6e6865ddb5ad5"


def test_web_demo_dataset_leaves_no_parse_cached_on_the_corpus():
    corpus = demo_pages(6, 6, seed=8)
    ds = web_demo_dataset(corpus)
    assert all("events" not in vars(page) for _, page, _ in corpus)
    # the features the corpus pages themselves extract to
    assert np.array_equal(ds.X, np.vstack([extract_features(page).values for _, page, _ in corpus]))
    assert ds.y.tolist() == [label for _, _, label in corpus]


def test_forged_pages_match_the_golden_hash():
    """The forged bytes depend on the plan alone, not on the model's scores or any BLAS."""
    corpus = demo_pages(20, 20, seed=4)
    ds = web_demo_dataset(corpus)
    plan = build_plan(ds, AttackConfig(n=9, epsilon=6.0, feature_mask=frozenset(ds.schema.addable_indices())),
                      seed=0)
    model = fit("decision_tree", ds, seed=0)
    digest = hashlib.sha256()
    for name, page, _ in corpus:
        forged, _ = problem_space_attack(page, plan, model)
        assert forged.html != page.html, name
        digest.update(f"{name}\n{forged.html}\n".encode())
    assert digest.hexdigest() == FORGED_PAGES_SHA256


def count_model_calls(monkeypatch, model):
    """Rows passed to each call of the model's scorer, the one call every prediction makes."""
    calls = []
    real = model.impl.predict_scores

    def wrapper(X):
        calls.append(len(X))
        return real(X)

    monkeypatch.setattr(model.impl, "predict_scores", wrapper)
    return calls


def test_problem_space_scores_each_vector_once(monkeypatch):
    ds, model, mask = web_fixture()
    plan = build_plan(ds, AttackConfig(n=6, epsilon=4.0, method="gini_impurity", feature_mask=mask), seed=0)
    page = demo_pages(1, 0, seed=11)[0][1]
    expected = problem_space_attack(page, plan, model)
    calls = count_model_calls(monkeypatch, model)
    forged, record = problem_space_attack(page, plan, model)
    assert calls == [1, 1]
    assert (forged, record) == expected
    assert record.baseline_label == int(record.baseline_score >= 0.5)
    assert record.attack_label == int(record.attack_score >= 0.5)
    assert record.baseline_label == predict(model, extract_features(page).values)[0]
    assert record.attack_label == predict(model, extract_features(forged).values)[0]


def test_page_corpus_publishes_one_directory_with_labels_written_last_and_synced(tmp_path, monkeypatch):
    target = tmp_path / "pages"
    target.mkdir()  # an empty directory is replaced
    writes = []
    real = synth.atomic_write_text

    def recording(path, text):
        staged = Path(path).parent
        writes.append((Path(path).name, staged.name, sorted(p.name for p in staged.iterdir()), list(target.iterdir())))
        real(path, text)

    monkeypatch.setattr(synth, "atomic_write_text", recording)
    corpus = demo_pages(2, 1, seed=3)
    write_page_corpus(corpus, target)
    pages = [f"{name}.html" for name, _, _ in corpus]
    files = sorted(f for page in pages for f in (page, page + ".url"))
    [(name, staged, present, published)] = writes  # labels.csv is the one synced write, made after the rest
    assert (name, present, published) == ("labels.csv", files, [])
    assert re.fullmatch(r"\.pages\.[0-9a-f]{16}\.tmp", staged)
    assert [p.name for p in tmp_path.iterdir()] == ["pages"]
    assert sorted(p.name for p in target.iterdir()) == sorted([*files, "labels.csv"])
    assert (target / "labels.csv").read_bytes() == (
        b"page,label\r\n" + b"".join(f"{page},{'phishing' if label == 1 else 'legitimate'}\r\n".encode()
                                     for page, (_, _, label) in zip(pages, corpus))
    )


def test_a_page_corpus_that_fails_partway_leaves_no_target_and_no_private_entry(tmp_path):
    corpus = demo_pages(2, 1, seed=3)
    name, page, label = corpus[1]
    corpus[1] = (name, WebPage(page.url, page.html + "\ud800"), label)  # a lone surrogate cannot be encoded
    with pytest.raises(UnicodeEncodeError):
        write_page_corpus(corpus, tmp_path / "pages")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kept", ["pages/keep.html", "pages"], ids=["non-empty directory", "file"])
def test_a_page_corpus_into_an_occupied_target_raises_and_leaves_no_private_entry(tmp_path, kept):
    (tmp_path / kept).parent.mkdir(exist_ok=True)
    (tmp_path / kept).write_text("kept", encoding="utf-8")
    with pytest.raises(OSError):
        write_page_corpus(demo_pages(1, 1, seed=3), tmp_path / "pages")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == sorted({"pages", kept})
    assert (tmp_path / kept).read_text(encoding="utf-8") == "kept"
