import copy
import json
import pickle
import random
import re

import numpy as np
import pytest
from oracles import extract_features_reference, splice_points_reference

from tabevade import pageparse
from tabevade.errors import SchemaError
from tabevade.synth import demo_pages
from tabevade.webfeatures import (
    ADDABLE_WEB_FEATURES,
    BINARY_WEB_FEATURES,
    WEB_FEATURE_NAMES,
    WebFeatureVector,
    WebPage,
    default_web_schema,
    element_sequence,
    extract_features,
)
from tabevade.pageparse import _parse_events, _tokenize_plain, collect_events
from tabevade.webspace import InjectionPlan, inject


def test_feature_table_has_52_entries_in_order():
    assert len(WEB_FEATURE_NAMES) == 52
    assert WEB_FEATURE_NAMES[0] == "href"
    assert WEB_FEATURE_NAMES[-1] == "SFH"
    assert WEB_FEATURE_NAMES[17] == "protocol"


def test_addable_set_is_the_nine_repeatable_html_features():
    assert set(ADDABLE_WEB_FEATURES) == {
        "href", "javascript", "images", "meta", "forms",
        "iframes", "hidden_text", "redirects", "submit_to_mail",
    }


def test_default_schema_matches_feature_table():
    schema = default_web_schema()
    assert schema.names == WEB_FEATURE_NAMES
    assert [schema.names[i] for i in schema.addable_indices()] == list(ADDABLE_WEB_FEATURES)


def test_url_hand_counts():
    page = WebPage(url="https://www.example.com", html="<html></html>")
    vec = extract_features(page)
    assert vec["protocol"] == 1
    assert vec["no_www"] == 1
    assert vec["no_dots"] == 2
    assert vec["subdomain_len"] == 3
    assert vec["url_len"] == len("https://www.example.com")
    assert vec["len_freeurl"] == len("www.example.com")
    assert vec["no_dir"] == 0
    assert vec["no_http"] == 1
    assert vec["length_of_domains"] == len("example.com")
    assert vec["no_digits"] == 0
    assert vec["alph_digit_ratio"] == 0  # zero digits -> zero denominator rule


def test_html_hand_counts():
    page = WebPage(url="http://x.example", html="<html><body><a href='x'>a</a></body></html>")
    vec = extract_features(page)
    assert vec["href"] == 1
    assert vec["url_of_anchor"] == 1
    assert vec["images"] == 0
    assert vec["iframes"] == 0
    assert vec["text_in_body"] == 1
    assert vec["protocol"] == 0


def test_empty_body_counts_zero():
    page = WebPage(url="http://x.example", html="<html><head></head><body></body></html>")
    vec = extract_features(page)
    assert vec["text_in_body"] == 0
    assert vec["title"] == 0
    for name in ("href", "javascript", "images", "meta", "forms", "iframes"):
        assert vec[name] == 0


def test_form_taxonomy():
    html = (
        "<html><body>"
        '<form action="#"></form>'
        '<form action="http://evil.example/post"></form>'
        '<form action="/relative"></form>'
        '<form action="https://ok.example/x"></form>'
        "<form></form>"
        "</body></html>"
    )
    vec = extract_features(WebPage(url="http://x.example", html=html))
    assert vec["forms"] == 5
    assert vec["abnormalforms"] == 2  # "#" and missing action
    assert vec["insecureforms"] == 1
    assert vec["relativeforms"] == 1
    assert vec["SFH"] == 2  # relative + https


def test_script_derived_counts():
    html = (
        "<html><body>"
        "<script>window.location.href='/next'; window.open('x'); alert(1); prompt('q');</script>"
        '<meta http-equiv="refresh" content="0">'
        "</body></html>"
    )
    vec = extract_features(WebPage(url="http://x.example", html=html))
    assert vec["redirects"] == 2  # one script match (non-overlapping) + meta refresh
    assert vec["popup"] == 2
    assert vec["userprompt"] == 1
    assert vec["javascript"] == 1
    # script text never leaks into the body word count
    assert vec["text_in_body"] == 0


def test_hidden_text_rule():
    html = (
        "<html><body>"
        '<input type="hidden" name="a">'
        "<span hidden>secret</span>"
        '<div style="display:none">css hidden does not count</div>'
        "</body></html>"
    )
    vec = extract_features(WebPage(url="http://x.example", html=html))
    assert vec["hidden_text"] == 2


def test_binary_features_are_binary():
    html = "<html><head><title>t</title></head><body onmouseover='x'>hello</body></html>"
    vec = extract_features(WebPage(url="https://x.example", html=html))
    for name in BINARY_WEB_FEATURES:
        assert vec[name] in (0.0, 1.0)
    assert vec["title"] == 1
    assert vec["onmouseover"] == 1


def test_suspicious_words_counted_case_insensitively():
    html = "<html><body>Please SUBMIT your CVV and register. Register now.</body></html>"
    vec = extract_features(WebPage(url="http://x.example", html=html))
    assert vec["suspicious_words"] == 4


def test_mailto_counts():
    html = '<html><body><a href="mailto:a@b.example">mail</a><a href="/x">x</a></body></html>'
    vec = extract_features(WebPage(url="http://x.example", html=html))
    assert vec["submit_to_mail"] == 1
    assert vec["href"] == 2


def test_extraction_is_deterministic():
    page = WebPage(
        url="https://sub.domain.example.org/a/b?q=1",
        html="<html><body><a href='x'>t</a><script>alert(1)</script></body></html>",
    )
    a = extract_features(page)
    b = extract_features(page)
    assert np.array_equal(a.values, b.values)


def test_malformed_html_still_extracts():
    page = WebPage(url="http://x.example", html="<a href='1'><b><a href='2'></i></zzz><img")
    vec = extract_features(page)
    assert vec["href"] == 2


def test_vector_validation_rejects_negative_counts():
    values = extract_features(WebPage(url="http://x.example", html="<html></html>")).values.copy()
    values[0] = -1
    with pytest.raises(SchemaError):
        WebFeatureVector(values=values)


def test_vector_validation_names_the_first_bad_feature_in_table_order():
    values = extract_features(WebPage(url="http://x.example", html="<html></html>")).values.copy()
    values[WEB_FEATURE_NAMES.index("images")] = 1.5
    values[WEB_FEATURE_NAMES.index("meta")] = -2
    with pytest.raises(SchemaError, match=r"^feature images must be a non-negative integer, got 1\.5$"):
        WebFeatureVector(values=values)
    values = extract_features(WebPage(url="http://x.example", html="<html></html>")).values.copy()
    values[WEB_FEATURE_NAMES.index("onmouseover")] = 3
    values[WEB_FEATURE_NAMES.index("title")] = 2
    with pytest.raises(SchemaError, match=r"^feature title must be 0 or 1$"):
        WebFeatureVector(values=values)


def test_unknown_feature_name_raises_schema_error_naming_it():
    vec = extract_features(WebPage(url="http://x.example", html="<html></html>"))
    with pytest.raises(SchemaError, match="'no_such_feature'"):
        vec["no_such_feature"]


def test_element_sequence_orders_tags():
    seq = element_sequence("<html><body><a href='x'>t</a><img src='y'></body></html>")
    assert [tag for tag, _ in seq] == ["html", "body", "a", "img"]


def test_self_closing_tags_leave_head_and_text_tracking_unchanged():
    events = collect_events("<html><head/><title/><script/><p>body words</p>"
                            "<head><meta charset='x'/></head><style/>tail</html>")
    assert [(tag, in_head) for tag, _, in_head in events.elements] == [
        ("html", False), ("head", True), ("title", False), ("script", False), ("p", False),
        ("head", True), ("meta", True), ("style", False),
    ]
    assert events.elements[6][1] == {"charset": "x"}
    assert "".join(events.body_text) == "body wordstail"
    assert events.script_text == []


# ---------------------------------------------------------------------------
# the plain-markup tokenizer against the stdlib parser

ALL_ADDITIONS = InjectionPlan(additions={name: 2 for name in ADDABLE_WEB_FEATURES})


def _replace_one(html: str, rng: random.Random, pattern: str, repl: str) -> str:
    matches = list(re.finditer(pattern, html))
    if not matches:
        return html
    m = rng.choice(matches)
    return html[:m.start()] + m.expand(repl) + html[m.end():]


# near-grammar edits of demo pages: the first group stays plain markup, the
# second leaves it (entities, comments, declarations, markup in raw text)
_MUTATIONS = (
    lambda h, r: _replace_one(h, r, r"<(img|input|meta)([^>]*)>", r"<\1\2/>"),
    lambda h, r: _replace_one(h, r, r"<(img|input|meta)([^>]*)>", r"<\1\2 />"),
    lambda h, r: _replace_one(h, r, r"<p>", "<br/><p>"),
    lambda h, r: _replace_one(h, r, r"<head>", "<head/><head>"),
    lambda h, r: _replace_one(h, r, r"<a (href=\"[^\"]*\")>([^<]*)</a>", r"<A \1>\2</A>"),
    lambda h, r: _replace_one(h, r, r"<script>([^<]*)</script>", r"<SCRIPT>\1</Script>"),
    lambda h, r: _replace_one(h, r, r"<title>([^<]*)</title>", r"<TITLE>\1</title>"),
    lambda h, r: _replace_one(h, r, r" href=", " HREF="),
    lambda h, r: _replace_one(h, r, r" type=", " Type="),
    lambda h, r: _replace_one(h, r, r"=\"([^\" ]+)\"", r"=\1"),
    lambda h, r: _replace_one(h, r, r"=\"([^\"]*)\"", r"='\1'"),
    lambda h, r: _replace_one(h, r, r"<a href=", '<a href="/dup" href='),
    lambda h, r: _replace_one(h, r, r"<input type=\"hidden\"", '<input type="text" type="hidden"'),
    lambda h, r: _replace_one(h, r, r"<p>", "<p hidden oncontextmenu onmouseover=\"\">"),
    lambda h, r: _replace_one(h, r, r"<input ", "<input hidden "),
    lambda h, r: _replace_one(h, r, r"<form ", '<form novalidate action="mailto:x@y.example" '),
    lambda h, r: _replace_one(h, r, r"<form ", "<form  action=' HTTP://x.example/p '  "),
    lambda h, r: _replace_one(h, r, r"</form>", '</form><form action="about:blank"></form><form action=#></form>'),
    lambda h, r: _replace_one(h, r, r"<meta ", '<meta HTTP-EQUIV=" Refresh " '),
    lambda h, r: _replace_one(h, r, r"<body>", '<body><textarea rows=2>a b</textarea><noscript>c</noscript>'),
    lambda h, r: _replace_one(h, r, r"<body>", "<body>\t<iframe></iframe>\n<xmp> d </xmp>"),
    # the rest leave the grammar
    lambda h, r: _replace_one(h, r, r"<p>", "<p>a &amp; b "),
    lambda h, r: _replace_one(h, r, r"<a ", "<!-- x --><a "),
    lambda h, r: "<!DOCTYPE html>" + h,
    lambda h, r: _replace_one(h, r, r"<script>", "<script>if (a<b) {}"),
    lambda h, r: _replace_one(h, r, r"<script>", "<script>x</p>y"),
    lambda h, r: _replace_one(h, r, r"</title>", ""),
    lambda h, r: h + "<script>window.open('tail')",
    lambda h, r: h + "<a href='x'>a</a><a href=\"y",
    lambda h, r: _replace_one(h, r, r"<h1>", "<h1>1 < 2 "),
    lambda h, r: _replace_one(h, r, r"<img ", "<img/ "),
)


def _near_grammar_documents(count: int, seed: int):
    rng = random.Random(seed)
    pages = [page for _, page, _ in demo_pages(10, 10, seed=seed)]
    pages += [inject(page, ALL_ADDITIONS) for page in pages]
    for _ in range(count):
        page = rng.choice(pages)
        html = page.html
        for _ in range(rng.randint(1, 3)):
            html = rng.choice(_MUTATIONS)(html, rng)
        yield WebPage(url=page.url, html=html)


def test_tokenizer_and_one_pass_counts_match_the_stdlib_parser_and_the_reference():
    accepted = 0
    documents = list(_near_grammar_documents(400, seed=3))
    for page in documents:
        reference = _parse_events(page.html)
        events = collect_events(page.html)
        assert events.elements == reference.elements, page.html
        assert "".join(events.script_text) == "".join(reference.script_text), page.html
        assert "".join(events.body_text) == "".join(reference.body_text), page.html
        assert (events.head_end, events.body_end) == (reference.head_end, reference.body_end) \
            == splice_points_reference(page.html), page.html
        assert [v.hex() for v in extract_features(page).values] == \
            [v.hex() for v in extract_features_reference(page).values], page.html
        accepted += _tokenize_plain(page.html) is not None
    # both paths must carry a real share, or the comparison above says nothing
    assert 0.35 * len(documents) <= accepted <= 0.85 * len(documents)


@pytest.mark.parametrize("seed", [0, 7, 41])
def test_demo_pages_and_their_injected_forms_take_the_tokenizer(seed):
    for _, page, _ in demo_pages(20, 20, seed=seed):
        for html in (page.html, inject(page, ALL_ADDITIONS).html):
            events = _tokenize_plain(html)
            assert events is not None, html
            assert events == _parse_events(html)


@pytest.mark.parametrize("html", [
    # CPython 3.11.7 and 3.13.13 give different events for the first eight
    "<title>a<b>c</b></title><a>",
    "<iframe><a href=3></iframe>",
    "<textarea><a href=1></textarea>",
    "<xmp><a href=1></xmp>",
    "<plaintext><a href=1>",
    "<plaintext>a</plaintext>",
    "<!--x--!><a href=1>t</a>-->",
    "<script>x</script",
    "<a href='x'>a</a><a href=\"y",
    # self-closed and unclosed raw-text elements are outside plain markup too
    "<script/>",
    "<title>x",
])
def test_pages_with_version_dependent_parses_take_the_stdlib_parser(html):
    assert _tokenize_plain(html) is None
    assert collect_events(html) == _parse_events(html)


# ---------------------------------------------------------------------------
# the attribute cache

def test_a_cold_and_a_warm_attribute_cache_give_equal_events():
    pages = [page for _, page, _ in demo_pages(5, 5, seed=11)]
    htmls = [html for page in pages for html in (page.html, inject(page, ALL_ADDITIONS).html)]
    pageparse._plain_attrs.cache_clear()
    cold = [collect_events(html) for html in htmls]
    warm = [collect_events(html) for html in htmls]
    assert pageparse._plain_attrs.cache_info().hits > 0
    assert cold == warm == [_parse_events(html) for html in htmls]


@pytest.mark.parametrize("parse", [_tokenize_plain, _parse_events])
def test_attribute_maps_from_both_parsers_refuse_mutation(parse):
    events = parse('<html><head></head><body><a href="#x" id="y">a</a><br></body></html>')
    assert events is not None
    maps = [attrs for _, attrs, _ in events.elements]
    assert maps[-2] == {"href": "#x", "id": "y"} and json.dumps(maps[-2]) == '{"href": "#x", "id": "y"}'
    mutations = [
        lambda m: m.__setitem__("href", "#z"),
        lambda m: m.__delitem__("href"),
        lambda m: m.update(href="#z"),
        lambda m: m.setdefault("rel", "z"),
        lambda m: m.pop("href", None),
        lambda m: m.popitem(),
        lambda m: m.clear(),
        lambda m: m.__ior__({"rel": "z"}),
    ]
    for attrs in maps:
        before = dict(attrs)
        for mutate in mutations:
            with pytest.raises(TypeError):
                mutate(attrs)
        assert attrs == before
    assert copy.deepcopy(maps) == maps and pickle.loads(pickle.dumps(maps)) == maps


def test_elements_with_equal_attribute_text_share_one_map():
    events = _tokenize_plain('<p class="a" id="b">x</p><div class="a" id="b"></div><p class="a"></p><br><hr>')
    (_, first, _), (_, second, _), (_, other, _), (_, none, _), (_, none_again, _) = events.elements
    assert first is second and first == {"class": "a", "id": "b"}
    assert other is not first and other == {"class": "a"}
    assert none is none_again and none == {}


def test_the_attribute_cache_stays_bounded():
    pageparse._plain_attrs.cache_clear()
    for k in range(1000):
        assert _tokenize_plain(f'<p id="page{k}" class="c{k}">x</p>') is not None
    info = pageparse._plain_attrs.cache_info()
    assert info.misses == 1000 and info.currsize <= 256
