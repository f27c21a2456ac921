import numpy as np
import pytest

from tabevade.errors import SchemaError
from tabevade.webfeatures import (
    ADDABLE_WEB_FEATURES,
    BINARY_WEB_FEATURES,
    WEB_FEATURE_NAMES,
    WebFeatureVector,
    WebPage,
    collect_events,
    default_web_schema,
    element_sequence,
    extract_features,
)


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
