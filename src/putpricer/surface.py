"""Price/error surfaces and their deterministic CSV serialization.

CSV output is byte-stable for identical inputs: metadata lines are sorted,
numbers use fixed 12-significant-digit scientific notation, line endings
are LF and the encoding is UTF-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PriceSurface:
    """Values over one axis (columns per method) or two axes (one value)."""

    axis_names: tuple
    axes: tuple
    value_names: tuple
    values: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.axis_names) not in (1, 2) or len(self.axis_names) != len(self.axes):
            raise ValueError("surface needs one or two named axes")
        if len(self.value_names) != len(self.values) or not self.values:
            raise ValueError("surface needs at least one named value array")
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = tuple(np.asarray(v, dtype=float) for v in self.values)
        expected = tuple(len(a) for a in self.axes)
        for name, arr in zip(self.value_names, self.values):
            if arr.shape != expected:
                raise ValueError(
                    f"value {name!r} has shape {arr.shape}, axes imply {expected}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"value {name!r} contains non-finite entries")

    def write_csv(self, path) -> None:
        lines = [f"# {key}: {self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(list(self.axis_names) + list(self.value_names)))
        if len(self.axes) == 1:
            columns = [self.axes[0], *self.values]
        else:
            grid = np.meshgrid(*self.axes, indexing="ij")
            columns = [g.ravel() for g in grid] + [v.ravel() for v in self.values]
        # one %-format over the whole table: every row uses the same template
        row_format = ",".join(["%.11e"] * len(columns))
        lines.append("\n".join([row_format] * self.n_rows)
                     % tuple(np.column_stack(columns).ravel().tolist()))
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")

    @property
    def n_rows(self) -> int:
        rows = len(self.axes[0])
        if len(self.axes) == 2:
            rows *= len(self.axes[1])
        return rows
