"""Extraction of the 52 URL/HTML features a page-level detector consumes.

Every counting rule is frozen here (and documented in docs/web_features.md).
URL rules operate on the raw string plus a urlsplit of it.  HTML rules read
the page's events, which :mod:`tabevade.pageparse` collects.

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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from urllib.parse import urlsplit

import numpy as np

from .data import FeatureSchema, FeatureSpec
from .errors import SchemaError
from .pageparse import PageEvents, collect_events

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

    @cached_property
    def events(self) -> PageEvents:
        """The page's one parse, shared by feature extraction and injection."""
        return collect_events(self.html)


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
        bad = _INTEGRAL_MASK & ((values < 0) | (values != np.floor(values)))
        if bad.any():
            i = int(bad.argmax())
            raise SchemaError(f"feature {WEB_FEATURE_NAMES[i]} must be a non-negative integer, got {values[i]}")
        bad = _BINARY_MASK & (values != 0.0) & (values != 1.0)
        if bad.any():
            raise SchemaError(f"feature {WEB_FEATURE_NAMES[int(bad.argmax())]} must be 0 or 1")

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[_FEATURE_INDEX[name]])
        except KeyError:
            raise SchemaError(f"unknown web feature {name!r}") from None


_FEATURE_INDEX = {name: i for i, name in enumerate(WEB_FEATURE_NAMES)}
_INTEGRAL_MASK = np.array([name not in RATIO_WEB_FEATURES for name in WEB_FEATURE_NAMES])
_BINARY_MASK = np.array([name in BINARY_WEB_FEATURES for name in WEB_FEATURE_NAMES])


def element_sequence(html: str) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
    """Document-order (tag, sorted attrs) pairs, for structural comparisons."""
    return [
        (tag, tuple(sorted(attrs.items())))
        for tag, attrs, _ in collect_events(html).elements
    ]


def _count_matches(pattern: re.Pattern, text: str) -> int:
    return sum(1 for _ in pattern.finditer(text))


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
    events = page.events
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

    tags: Counter[str] = Counter()
    href = mailto = hidden = passwords = refresh = contextmenu = mouseover = 0
    abnormal_forms = insecure_forms = relative_forms = safe_forms = 0
    for tag, attrs, _ in events.elements:
        tags[tag] += 1
        if tag == "form":
            action = attrs.get("action")
            target = action.strip().lower() if action is not None else ""
            if target in ("", "#", "about:blank"):
                abnormal_forms += 1
            else:
                if target.startswith("http://"):
                    insecure_forms += 1
                else:
                    safe_forms += 1
                if not _SCHEME_RE.match(action.strip()):
                    relative_forms += 1
        if not attrs:
            continue
        if "href" in attrs:
            href += 1
            if attrs["href"].strip().lower().startswith("mailto:"):
                mailto += 1
        if "oncontextmenu" in attrs:
            contextmenu += 1
        if "onmouseover" in attrs:
            mouseover = 1
        if tag == "input":
            kind = attrs.get("type", "").lower()
            if "hidden" in attrs or kind == "hidden":
                hidden += 1
            if kind == "password":
                passwords += 1
        elif "hidden" in attrs:
            hidden += 1
        if tag == "meta" and attrs.get("http-equiv", "").strip().lower() == "refresh":
            refresh += 1

    values = {
        "href": href,
        "javascript": tags["script"],
        "text_in_body": len("".join(events.body_text).split()),
        "no_www": url.count("www"),
        "images": tags["img"],
        "meta": tags["meta"],
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
        "passwdfield": passwords,
        "no_vowels": vowels,
        "no_alpha": letters,
        "no_constants": consonants,
        "no_dots": url.count("."),
        "host_dig_let_ratio": _ratio(host_digits, host_letters),
        "iframes": tags["iframe"],
        "forms": tags["form"],
        "length_of_domains": len(domain),
        "dots_freeurl": hostname.count("."),
        "relativeforms": relative_forms,
        "vowel_constant_ratio": _ratio(vowels, consonants),
        "hidden_text": hidden,
        "longest_token_hostname": _longest_token(hostname),
        "dig_in_hostname": host_digits,
        "no_dash": url.count("-"),
        "redirects": _count_matches(_REDIRECT_RE, script_text) + refresh,
        "url_of_anchor": tags["a"],
        "submit_to_mail": mailto,
        "rightclick_disabled": contextmenu,
        "no_special_sym": sum(1 for c in url if c in _SPECIAL_SYMBOLS),
        "title": 1 if tags["title"] else 0,
        "no_percent": url.count("%"),
        "no_eq": url.count("="),
        "no_ques": url.count("?"),
        "popup": _count_matches(_POPUP_RE, script_text),
        "insecureforms": insecure_forms,
        "no_http": url.count("http"),
        "abnormalforms": abnormal_forms,
        "onmouseover": mouseover,
        "no_at": url.count("@"),
        "userprompt": _count_matches(_PROMPT_RE, script_text),
        "no_dollar": url.count("$"),
        "SFH": safe_forms,
    }
    return WebFeatureVector(values=np.array([values[name] for name in WEB_FEATURE_NAMES], dtype=float))
