"""Diff-stable JSON output (17 significant digits) and the stopwatch of a
run; the run reports themselves are built in `cli._report`."""

from __future__ import annotations

import math
import time


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps_17(obj, indent: int = 2) -> str:
    """JSON text with every float rendered at 17 significant digits."""

    def render(o, level):
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, float):
            return _format_float(o)
        if isinstance(o, int):
            return str(o)
        if isinstance(o, str):
            out = o.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            return f'"{out}"'
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f'{pad_in}"{k}": {render(v, level + 1)}' for k, v in o.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad_in}{render(v, level + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if hasattr(o, "tolist"):  # numpy scalars and arrays
            return render(o.tolist(), level)
        if hasattr(o, "item"):
            return render(o.item(), level)
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj, 0) + "\n"


class Stopwatch:
    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        return False
