"""In-memory spans around calls into the package's public functions.

``Tracer.install`` replaces every reference to a listed function inside the
``chordalkit`` modules with a wrapper, so calls the package makes between its
own modules (the CLI calling a builder, one renderer calling another) nest
as child spans. ``uninstall`` puts the originals back. Untraced passes never
go through a wrapper. Span times are CPU seconds of this process, as are
all of the benchmark's timings (see worker.py).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import process_time as clock


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or -1, case id, pass number, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.case = ""
        self.pass_no = 0

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.case, self.pass_no, clock(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][5] = clock()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def install(self, functions) -> None:
        for qualified in functions:
            mod_name, fn_name = qualified.split(".")
            original = getattr(importlib.import_module(f"chordalkit.{mod_name}"), fn_name)
            wrapped = self.wrap(qualified, original)
            for name, module in list(sys.modules.items()):
                if name != "chordalkit" and not name.startswith("chordalkit."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def child_time(self, sid: int) -> float:
        return sum(s[5] - s[4] for s in self.spans[sid + 1:] if s[1] == sid)

    def self_times(self, skip_case=lambda case: False) -> dict[tuple[int, str], list[float]]:
        """(pass, name) -> self times (duration minus the child spans'), over
        spans whose case id ``skip_case`` does not reject."""
        child_total = [0.0] * len(self.spans)
        for _name, parent, _case, _p, start, end in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[tuple[int, str], list[float]] = {}
        for i, (name, _parent, case, p, start, end) in enumerate(self.spans):
            if not skip_case(case):
                out.setdefault((p, name), []).append(end - start - child_total[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, case, p, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "case": case,
                                     "pass": p, "start": start, "end": end}) + "\n")
