"""A page's HTML events, from one of two parsers.

* pages in the *plain markup* grammar go through a one-regex tokenizer
  (``_tokenize_plain``): text without ``<`` or ``&``, start tags with
  quoted or bare attributes and an optional ``/>``, and end tags.  Each
  raw-text element (script, style, title, textarea, iframe, xmp, noembed,
  noframes, noscript) holds only text and is closed by its own end tag;
* every other page (comments, declarations, entities, a stray ``<``,
  markup inside a raw-text element, a self-closed or unclosed raw-text
  element, ``<plaintext>``, a tag left open at end of input) goes to
  ``_Collector``, a subclass of the stdlib ``HTMLParser``.

Both also report where ``inject`` splices: the last real </head>, and the
last real </body>, else </html>, else the end of the finished markup.
The tokenizer yields exactly the events ``_Collector`` yields on its pages
(tests/test_webfeatures.py checks this differentially), and those events do
not depend on the Python version (tests/test_pageparse.py checks this on
every other CPython it finds).  So extraction is a pure function of
(url, html) for plain markup; other pages follow the running interpreter's
``html.parser``, whose handling of raw-text elements and comments has
changed between CPython releases.  The module imports only the standard
library and ``.errors``, so it loads without numpy.

Attribute maps are read-only (``_AttrMap``).  The tokenizer parses each
distinct attribute string once, in a cache of the last 256 strings, and
every element with that string shares the one map; pages repeat their
attribute strings heavily, and ``inject`` builds its markup from a few
templates.
"""
from __future__ import annotations

import re
from functools import lru_cache
from html.parser import HTMLParser
from typing import NamedTuple

from .errors import ExtractionError


class _AttrMap(dict):
    """An element's attributes, which every mutator refuses: maps are shared between elements."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("attribute maps are shared and read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # unpickling and copying would otherwise rebuild the map item by item
        return _AttrMap, (dict(self),)


_NO_ATTRS = _AttrMap()


class PageEvents(NamedTuple):
    """Start tags in document order, with the text a page's rules read and
    the offsets where injection splices markup in.

    The attribute maps are read-only, and elements with the same attribute
    text may share one map: copy a map with ``dict(attrs)`` to change it."""

    elements: list[tuple[str, dict[str, str], bool]]  # (tag, attrs, in_head)
    script_text: list[str]  # inside script/style/title
    body_text: list[str]  # everywhere else outside head
    head_end: int | None  # the last real </head>
    body_end: int  # the last real </body>, else </html>, else the end of the finished markup


_SKIP_TEXT_ELEMENTS = frozenset(("script", "style", "title"))


def _splice_offsets(ends: dict[str, int], finished: int) -> tuple[int | None, int]:
    """(head_end, body_end) from the offsets of the last real end tag of each name."""
    return ends.get("head"), ends.get("body", ends.get("html", finished))


class _Collector(HTMLParser):
    """Streams start tags, attributes and text with head/script tracking, and
    the offsets of the real </head>, </body> and </html> end tags."""

    def __init__(self, html: str) -> None:
        super().__init__(convert_charrefs=True)
        self.elements: list[tuple[str, dict[str, str], bool]] = []  # (tag, attrs, in_head)
        self.script_text: list[str] = []
        self.body_text: list[str] = []
        self._head_depth = 0
        self._skip_text_depth = 0  # inside script/style/title
        self._line_starts = [0] + [m.end() for m in re.finditer("\n", html)]
        self.ends: dict[str, int] = {}  # tag -> offset of its last real end tag
        self.last_start = 0  # offset of the last start tag

    def _offset(self) -> int:
        line, column = self.getpos()
        return self._line_starts[line - 1] + column

    def _element(self, tag, attrs) -> str:
        self.last_start = self._offset()
        tag = tag.lower()
        attr_map: dict[str, str] = {}
        for key, value in attrs:
            key = key.lower()
            if key not in attr_map:
                attr_map[key] = value if value is not None else ""
        self.elements.append((tag, _AttrMap(attr_map), self._head_depth > 0 or tag == "head"))
        return tag

    def handle_starttag(self, tag, attrs):
        tag = self._element(tag, attrs)
        if tag == "head":
            self._head_depth += 1
        elif tag in _SKIP_TEXT_ELEMENTS:
            self._skip_text_depth += 1

    def handle_startendtag(self, tag, attrs):  # <head/> or <body/> opens nothing and closes nothing
        self._element(tag, attrs)

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in ("head", "body", "html"):
            self.ends[tag] = self._offset()
        if tag == "head" and self._head_depth > 0:
            self._head_depth -= 1
        elif tag in _SKIP_TEXT_ELEMENTS and self._skip_text_depth > 0:
            self._skip_text_depth -= 1

    def handle_data(self, data):
        if self._skip_text_depth > 0:
            # script text is kept for redirect/popup counting
            self.script_text.append(data)
        elif self._head_depth == 0:
            self.body_text.append(data)


# Raw-text elements hold text only in plain markup, so their content reads the
# same whether a parser treats them as raw text or as ordinary elements.
_RAW_TEXT_ELEMENTS = ("script", "style", "title", "textarea", "iframe", "xmp", "noembed", "noframes", "noscript")
# never a plain start tag: a raw-text element matched as one was self-closed or
# held markup, and <plaintext> swallows the rest of the page in some parsers
_NOT_PLAIN_START = frozenset(_RAW_TEXT_ELEMENTS + ("plaintext",))
_WS = r"[ \t\n\r\f]"  # the whitespace every CPython html.parser agrees on inside tags
_NAME = r"[A-Za-z][A-Za-z0-9]*"
_ATTR_NAME = r"[A-Za-z_:][-A-Za-z0-9_:.]*"
_ATTR_VALUE = r"""(?:"[^"<>]*"|'[^'<>]*'|[^\s"'=<>`]+)"""
_ATTRS = rf"(?:{_WS}+{_ATTR_NAME}(?:={_ATTR_VALUE})?)*"
_ATTR_RE = re.compile(rf"{_WS}+({_ATTR_NAME})(?:=({_ATTR_VALUE}))?")
# one match per run of text plus the token after it: a raw-text element with
# its content, a start tag, an end tag, a stray "<", or the end of the page
_PLAIN_TOKEN_RE = re.compile(
    r"([^<]*)(?:"
    rf"<((?ai:{'|'.join(_RAW_TEXT_ELEMENTS)}))({_ATTRS}){_WS}*>([^<]*)</({_NAME})>"
    rf"|<({_NAME})({_ATTRS}){_WS}*(/?)>"
    rf"|</({_NAME})>"
    r"|(<)|\Z)"
)
# Every "<" in plain markup opens a tag the tokenizer reads (attribute values
# and raw text hold none), so in a plain page each match is a real end tag.
_SPLICE_END_RE = re.compile(r"</(head|body|html)>", re.IGNORECASE)


@lru_cache(maxsize=256)
def _plain_attrs(text: str) -> _AttrMap:
    """The map of one start tag's attribute text; equal texts get the same map."""
    attrs: dict[str, str] = {}
    for name, value in _ATTR_RE.findall(text):
        name = name.lower()
        if name not in attrs:  # the first of duplicate attributes wins, as in _Collector
            attrs[name] = value[1:-1] if value[:1] in ('"', "'") else value
    return _AttrMap(attrs)


def _tokenize_plain(html: str) -> PageEvents | None:
    """The events of a plain-markup page; None once the page leaves that grammar."""
    if "&" in html:
        return None
    elements: list[tuple[str, dict[str, str], bool]] = []
    script_text: list[str] = []
    body_text: list[str] = []
    head_depth = 0
    for text, raw_tag, raw_attrs, raw_text, raw_end, tag, attrs, close, end_tag, stray in (
        _PLAIN_TOKEN_RE.findall(html)
    ):
        if text and not head_depth:
            body_text.append(text)
        if tag:
            tag = tag.lower()
            if tag in _NOT_PLAIN_START:
                return None
            elements.append((tag, _plain_attrs(attrs) if attrs else _NO_ATTRS, head_depth > 0 or tag == "head"))
            if tag == "head" and not close:
                head_depth += 1
        elif end_tag:
            if head_depth and end_tag.lower() == "head":
                head_depth -= 1
        elif raw_tag:
            tag = raw_tag.lower()
            if raw_end.lower() != tag:
                return None
            elements.append((tag, _plain_attrs(raw_attrs) if raw_attrs else _NO_ATTRS, head_depth > 0))
            if raw_text:
                if tag in _SKIP_TEXT_ELEMENTS:
                    script_text.append(raw_text)
                elif not head_depth:
                    body_text.append(raw_text)
        elif stray:
            return None
    ends = {m[1].lower(): m.start() for m in _SPLICE_END_RE.finditer(html)}
    return PageEvents(elements, script_text, body_text, *_splice_offsets(ends, len(html)))


def _parse_events(html: str) -> PageEvents:
    """The stdlib parser's events: the only path for pages outside plain markup."""
    collector = _Collector(html)
    try:
        collector.feed(html)
        # read before close(): what the parser holds back now (an unclosed comment, tag or raw-text
        # element) is unfinished markup, and an end tag that only close() flushes out is not real
        finished = collector.last_start if collector.cdata_elem else len(html) - len(collector.rawdata)
        head_end, body_end = _splice_offsets(collector.ends, finished)
        collector.close()
    except Exception as exc:  # the stdlib parser is lenient; anything else is fatal
        raise ExtractionError(f"cannot parse page: {exc}") from exc
    return PageEvents(collector.elements, collector.script_text, collector.body_text, head_end, body_end)


def collect_events(html: str) -> PageEvents:
    """A page's events: from the tokenizer for plain markup, else from the stdlib parser."""
    events = _tokenize_plain(html)
    return events if events is not None else _parse_events(html)
