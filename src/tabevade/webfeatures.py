"""Extraction of the 52 URL/HTML features a page-level detector consumes.

Every counting rule is frozen here (and documented in docs/web_features.md):
extraction is a pure function of (url, html) so re-extraction after page
edits captures side effects exactly.  HTML is parsed leniently with the
stdlib parser; URL rules operate on the raw string plus a urlsplit of it.

Rules that matter most downstream:

* ``href`` counts elements carrying an href attribute; ``url_of_anchor``
  counts <a> tags, so injected anchors bump both.
* ``hidden_text`` counts elements with the ``hidden`` attribute plus
  <input type="hidden">; CSS display suppression does not count.
* ``text_in_body`` is the whitespace-delimited word count of character data
  outside script/style/title/head.
* ratio features return 0 when their denominator is 0.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from html.parser import HTMLParser
from urllib.parse import urlsplit

import numpy as np

from .data import FeatureSchema, FeatureSpec
from .errors import ExtractionError, SchemaError

SUSPICIOUS_TERMS = (
    "cardnumber",
    "cvv",
    "email",
    "submit",
    "prepaid",
    "bitcoin",
    "log in",
    "sign up",
    "logon",
    "register",
)

_REDIRECT_RE = re.compile(r"window\.location|document\.location|location\.(?:href|replace|assign)")
_POPUP_RE = re.compile(r"window\.open|alert\(")
_PROMPT_RE = re.compile(r"prompt\(")
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.\-]*:")
_TOKEN_RE = re.compile(r"[^0-9a-zA-Z]+")
_SPECIAL_SYMBOLS = set("@#$%^&*()+={}[]|\\;'\"<>~,`")
_VOWELS = set("aeiouAEIOU")

# feature name -> (kind for the schema, problem-space addable)
_FEATURE_TABLE: tuple[tuple[str, str, bool], ...] = (
    ("href", "discrete", True),
    ("javascript", "discrete", True),
    ("text_in_body", "discrete", False),
    ("no_www", "discrete", False),
    ("images", "discrete", True),
    ("meta", "discrete", True),
    ("no_digits", "discrete", False),
    ("subdomain_len", "discrete", False),
    ("alph_digit_ratio", "continuous", False),
    ("url_len", "discrete", False),
    ("len_freeurl", "discrete", False),
    ("no_dir", "discrete", False),
    ("no_alphanumeric", "discrete", False),
    ("hyphens_in_path", "discrete", False),
    ("longest_token", "discrete", False),
    ("suspicious_words", "discrete", False),
    ("len_fqdn", "discrete", False),
    ("protocol", "discrete", False),
    ("passwdfield", "discrete", False),
    ("no_vowels", "discrete", False),
    ("no_alpha", "discrete", False),
    ("no_constants", "discrete", False),
    ("no_dots", "discrete", False),
    ("host_dig_let_ratio", "continuous", False),
    ("iframes", "discrete", True),
    ("forms", "discrete", True),
    ("length_of_domains", "discrete", False),
    ("dots_freeurl", "discrete", False),
    ("relativeforms", "discrete", False),
    ("vowel_constant_ratio", "continuous", False),
    ("hidden_text", "discrete", True),
    ("longest_token_hostname", "discrete", False),
    ("dig_in_hostname", "discrete", False),
    ("no_dash", "discrete", False),
    ("redirects", "discrete", True),
    ("url_of_anchor", "discrete", False),
    ("submit_to_mail", "discrete", True),
    ("rightclick_disabled", "discrete", False),
    ("no_special_sym", "discrete", False),
    ("title", "discrete", False),
    ("no_percent", "discrete", False),
    ("no_eq", "discrete", False),
    ("no_ques", "discrete", False),
    ("popup", "discrete", False),
    ("insecureforms", "discrete", False),
    ("no_http", "discrete", False),
    ("abnormalforms", "discrete", False),
    ("onmouseover", "discrete", False),
    ("no_at", "discrete", False),
    ("userprompt", "discrete", False),
    ("no_dollar", "discrete", False),
    ("SFH", "discrete", False),
)

WEB_FEATURE_NAMES: tuple[str, ...] = tuple(name for name, _, _ in _FEATURE_TABLE)
ADDABLE_WEB_FEATURES: tuple[str, ...] = tuple(name for name, _, addable in _FEATURE_TABLE if addable)
BINARY_WEB_FEATURES = ("protocol", "title", "onmouseover")
RATIO_WEB_FEATURES = tuple(name for name, kind, _ in _FEATURE_TABLE if kind == "continuous")


def default_web_schema() -> FeatureSchema:
    """Schema over the 52 features; only repeatable HTML features are addable."""
    return FeatureSchema(
        features=tuple(
            FeatureSpec(name=name, kind=kind, mutable=True, addable=addable)
            for name, kind, addable in _FEATURE_TABLE
        ),
        target_column="label",
        positive_class_label="phishing",
        negative_class_label="legitimate",
    )


@dataclass(frozen=True)
class WebPage:
    url: str
    html: str


@dataclass(frozen=True)
class WebFeatureVector:
    """The 52 features in table order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(WEB_FEATURE_NAMES),):
            raise SchemaError(f"expected {len(WEB_FEATURE_NAMES)} feature values")
        if not np.isfinite(values).all():
            raise SchemaError("web features must be finite")
        for name, value in zip(WEB_FEATURE_NAMES, values):
            if name in RATIO_WEB_FEATURES:
                continue
            if value < 0 or value != np.floor(value):
                raise SchemaError(f"feature {name} must be a non-negative integer, got {value}")
        for name in BINARY_WEB_FEATURES:
            if self[name] not in (0.0, 1.0):
                raise SchemaError(f"feature {name} must be 0 or 1")

    def __getitem__(self, name: str) -> float:
        return float(self.values[WEB_FEATURE_NAMES.index(name)])


# ---------------------------------------------------------------------------
# lenient HTML event collection

class _Collector(HTMLParser):
    """Streams start tags, attributes and text with head/script tracking."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.elements: list[tuple[str, dict[str, str], bool]] = []  # (tag, attrs, in_head)
        self.script_text: list[str] = []
        self.body_text: list[str] = []
        self._head_depth = 0
        self._skip_text_depth = 0  # inside script/style/title

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        attr_map: dict[str, str] = {}
        for key, value in attrs:
            key = key.lower()
            if key not in attr_map:
                attr_map[key] = value if value is not None else ""
        self.elements.append((tag, attr_map, self._head_depth > 0 or tag == "head"))
        if tag == "head":
            self._head_depth += 1
        elif tag in ("script", "style", "title"):
            self._skip_text_depth += 1

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag == "head" and self._head_depth > 0:
            self._head_depth -= 1
        elif tag in ("script", "style", "title") and self._skip_text_depth > 0:
            self._skip_text_depth -= 1

    def handle_data(self, data):
        if self._skip_text_depth > 0:
            # script text is kept for redirect/popup counting
            self.script_text.append(data)
        elif self._head_depth == 0:
            self.body_text.append(data)


def collect_events(html: str) -> _Collector:
    collector = _Collector()
    try:
        collector.feed(html)
        collector.close()
    except Exception as exc:  # the stdlib parser is lenient; anything else is fatal
        raise ExtractionError(f"cannot parse page: {exc}") from exc
    return collector


def element_sequence(html: str) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
    """Document-order (tag, sorted attrs) pairs, for structural comparisons."""
    return [
        (tag, tuple(sorted(attrs.items())))
        for tag, attrs, _ in collect_events(html).elements
    ]


def _count_matches(pattern: re.Pattern, text: str) -> int:
    return sum(1 for _ in pattern.finditer(text))


def _style_declares_hidden(attrs: dict[str, str]) -> bool:
    style = attrs.get("style", "").replace(" ", "").lower()
    return "display:none" in style or "visibility:hidden" in style


def is_display_suppressed(attrs: dict[str, str]) -> bool:
    return "hidden" in attrs or attrs.get("type", "").lower() == "hidden" or _style_declares_hidden(attrs)


# ---------------------------------------------------------------------------
# the extractor

def _url_parts(url: str):
    target = url if "://" in url else "http://" + url
    try:
        parts = urlsplit(target)
    except ValueError:
        parts = urlsplit("http://invalid")
    hostname = parts.hostname or ""
    return parts, hostname


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _longest_token(text: str) -> int:
    tokens = [t for t in _TOKEN_RE.split(text) if t]
    return max((len(t) for t in tokens), default=0)


def extract_features(page: WebPage) -> WebFeatureVector:
    url = page.url
    events = collect_events(page.html)
    parts, hostname = _url_parts(url)
    labels = hostname.split(".") if hostname else []
    subdomain = ".".join(labels[:-2]) if len(labels) > 2 else ""
    domain = ".".join(labels[-2:]) if len(labels) >= 2 else hostname
    free_url = url.split("://", 1)[1] if "://" in url else url
    letters = sum(c.isalpha() for c in url)
    digits = sum(c.isdigit() for c in url)
    vowels = sum(c in _VOWELS for c in url)
    consonants = letters - vowels
    host_letters = sum(c.isalpha() for c in hostname)
    host_digits = sum(c.isdigit() for c in hostname)
    script_text = "".join(events.script_text)
    html_lower = page.html.lower()

    tags = [tag for tag, _, _ in events.elements]
    attrs_list = [attrs for _, attrs, _ in events.elements]

    def count_tag(name: str) -> int:
        return sum(1 for t in tags if t == name)

    def form_actions() -> list[str | None]:
        return [a.get("action") for t, a in zip(tags, attrs_list) if t == "form"]

    forms = form_actions()

    def action_is_abnormal(action: str | None) -> bool:
        return action is None or action.strip().lower() in ("", "#", "about:blank")

    def action_is_insecure(action: str | None) -> bool:
        return action is not None and action.strip().lower().startswith("http://")

    def action_is_relative(action: str | None) -> bool:
        if action_is_abnormal(action):
            return False
        return not _SCHEME_RE.match(action.strip())

    def action_is_safe(action: str | None) -> bool:
        return not action_is_abnormal(action) and not action_is_insecure(action)

    meta_refresh = sum(
        1
        for t, a in zip(tags, attrs_list)
        if t == "meta" and a.get("http-equiv", "").strip().lower() == "refresh"
    )

    values = {
        "href": sum(1 for a in attrs_list if "href" in a),
        "javascript": count_tag("script"),
        "text_in_body": len("".join(events.body_text).split()),
        "no_www": url.count("www"),
        "images": count_tag("img"),
        "meta": count_tag("meta"),
        "no_digits": digits,
        "subdomain_len": len(subdomain),
        "alph_digit_ratio": _ratio(letters, digits),
        "url_len": len(url),
        "len_freeurl": len(free_url),
        "no_dir": parts.path.count("/"),
        "no_alphanumeric": letters + digits,
        "hyphens_in_path": parts.path.count("-"),
        "longest_token": _longest_token(url),
        "suspicious_words": sum(html_lower.count(term) for term in SUSPICIOUS_TERMS),
        "len_fqdn": len(free_url.replace("/", "")),
        "protocol": 1 if url.lower().startswith("https") else 0,
        "passwdfield": sum(
            1 for t, a in zip(tags, attrs_list) if t == "input" and a.get("type", "").lower() == "password"
        ),
        "no_vowels": vowels,
        "no_alpha": letters,
        "no_constants": consonants,
        "no_dots": url.count("."),
        "host_dig_let_ratio": _ratio(host_digits, host_letters),
        "iframes": count_tag("iframe"),
        "forms": len(forms),
        "length_of_domains": len(domain),
        "dots_freeurl": hostname.count("."),
        "relativeforms": sum(1 for a in forms if action_is_relative(a)),
        "vowel_constant_ratio": _ratio(vowels, consonants),
        "hidden_text": sum(
            1
            for t, a in zip(tags, attrs_list)
            if "hidden" in a or (t == "input" and a.get("type", "").lower() == "hidden")
        ),
        "longest_token_hostname": _longest_token(hostname),
        "dig_in_hostname": host_digits,
        "no_dash": url.count("-"),
        "redirects": _count_matches(_REDIRECT_RE, script_text) + meta_refresh,
        "url_of_anchor": count_tag("a"),
        "submit_to_mail": sum(
            1 for a in attrs_list if a.get("href", "").strip().lower().startswith("mailto:")
        ),
        "rightclick_disabled": sum(1 for a in attrs_list if "oncontextmenu" in a),
        "no_special_sym": sum(1 for c in url if c in _SPECIAL_SYMBOLS),
        "title": 1 if count_tag("title") else 0,
        "no_percent": url.count("%"),
        "no_eq": url.count("="),
        "no_ques": url.count("?"),
        "popup": _count_matches(_POPUP_RE, script_text),
        "insecureforms": sum(1 for a in forms if action_is_insecure(a)),
        "no_http": url.count("http"),
        "abnormalforms": sum(1 for a in forms if action_is_abnormal(a)),
        "onmouseover": 1 if any("onmouseover" in a for a in attrs_list) else 0,
        "no_at": url.count("@"),
        "userprompt": _count_matches(_PROMPT_RE, script_text),
        "no_dollar": url.count("$"),
        "SFH": sum(1 for a in forms if action_is_safe(a)),
    }
    return WebFeatureVector(values=np.array([values[name] for name in WEB_FEATURE_NAMES], dtype=float))
