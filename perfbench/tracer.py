"""In-memory span tracing around the program's layer boundaries.

The tracer replaces a function at the place it is called from (a module
global or a class attribute) with a wrapper that records one span per
call: name, start, end, the enclosing span, and the request it belongs to
(one setup or one timed pass of the workload).  Modules bind most of these
functions with ``from ... import``, so wrapping the defining module alone
would record nothing; every site is named explicitly instead.
"""

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    request: str
    start: float
    end: float = 0.0
    child_seconds: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass(frozen=True)
class Site:
    """One call site to wrap: ``owner.attr`` becomes a span named ``name``.

    ``work`` maps the call's positional arguments to counts recorded on
    the span, such as rows or bytes handled.
    """

    owner: object
    attr: str
    name: str
    work: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, sites) -> None:
        for site in sites:
            original = getattr(site.owner, site.attr)
            self._restore.append((site.owner, site.attr, original))
            setattr(site.owner, site.attr, self._wrap(site, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, site: Site, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), site.name,
                        None if parent is None else parent.ident,
                        self.request, time.perf_counter())
            if site.work is not None:
                span.work = site.work(*args)
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_seconds += span.seconds
        return traced

    def fired(self) -> set[str]:
        return {span.name for span in self.spans}

    def to_json(self) -> list[dict]:
        return [
            {"id": s.ident, "name": s.name, "parent": s.parent,
             "request": s.request, "start": s.start, "end": s.end, **s.work}
            for s in self.spans
        ]
