"""Declarative search spaces over GPU designs x workloads.

A *design point* pairs one GPU design — a :class:`~repro.gpu.design_options.
DesignOption`, i.e. multipliers over a baseline :class:`~repro.gpu.spec.
GpuSpec` plus the GEMM CTA tile — with one workload (network x mini-batch x
training pass x datatype).  A *search space* is a declarative, composable
description of a set of design points:

* :func:`grid` — the cartesian product of axes (Fig. 16a generalized from 9
  hand-picked columns to thousands of combinations);
* :func:`zip_axes` — aligned axes, evaluating the i-th value of every axis
  together (the shape of the paper's original table, one column per point);
* :func:`union` — concatenation of spaces with stable order and content
  dedupe.

Spaces are frozen value objects.  :meth:`SearchSpace.table` enumerates
their design points in a deterministic order as a :class:`PointTable` — a
``(D, 9)`` design matrix plus a workload-signature index — which is what
makes seeded random search reproducible and the result store's content keys
stable.  The DSE pipeline reads only those arrays; :class:`DesignPoint`
objects are built for the rows a caller reads (:meth:`SearchSpace.points`
builds all of them).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
                    Union)

import numpy as np

from ..core.batched import design_matrix
from ..core.workload import check_batch, normalize_passes
from ..gpu.design_options import DesignOption
from ..gpu.spec import FP32_BYTES

#: GpuSpec resource multipliers a :class:`DesignOption` can scale.
GPU_AXIS_KEYS: Tuple[str, ...] = (
    "num_sm", "mac_bw", "regs", "smem_size", "smem_bw",
    "l1_bw", "l2_bw", "dram_bw",
)

#: workload dimensions of a design point.
WORKLOAD_AXIS_KEYS: Tuple[str, ...] = ("network", "batch", "passes", "dtype_bytes")

#: C-level :meth:`DesignPoint.workload_signature` of any point (hot sweep
#: loops call it directly).
signature_of = operator.attrgetter(*WORKLOAD_AXIS_KEYS)

#: every axis key a search space accepts ("cta_tile" selects the GEMM kernel's
#: CTA tile height/width, 128 or 256 in the paper).
AXIS_KEYS: Tuple[str, ...] = GPU_AXIS_KEYS + ("cta_tile",) + WORKLOAD_AXIS_KEYS


@dataclass(frozen=True)
class Axis:
    """One searchable dimension: a key and the values it ranges over."""

    key: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if self.key not in AXIS_KEYS:
            raise ValueError(
                f"unknown axis {self.key!r}; expected one of {list(AXIS_KEYS)}")
        values = tuple(self.values)
        if not values:
            raise ValueError(f"axis {self.key!r} needs at least one value")
        if self.key in GPU_AXIS_KEYS:
            values = tuple(float(v) for v in values)
            if not all(0 < v < math.inf for v in values):
                raise ValueError(
                    f"axis {self.key!r} multipliers must be positive and finite")
        elif self.key in ("cta_tile", "batch", "dtype_bytes"):
            values = tuple(int(v) for v in values)
            if self.key == "batch":
                for v in values:
                    check_batch(v, "axis 'batch' value")
            elif any(v <= 0 for v in values):
                raise ValueError(f"axis {self.key!r} values must be positive")
        elif self.key == "network":
            values = tuple(str(v).strip().lower() for v in values)
        elif self.key == "passes":
            values = tuple(normalize_passes(v) for v in values)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def axis(key: str, *values: object) -> Axis:
    """Shorthand constructor: ``axis("num_sm", 1, 2, 4)``."""
    return Axis(key, tuple(values))


@dataclass(frozen=True)
class DesignPoint:
    """One evaluable (GPU design, workload) pair of a search space."""

    option: DesignOption
    network: str = "resnet152"
    batch: int = 256
    passes: str = "forward"
    dtype_bytes: int = FP32_BYTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "network", self.network.strip().lower())
        object.__setattr__(self, "passes", normalize_passes(self.passes))
        check_batch(self.batch)
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")

    @property
    def name(self) -> str:
        return self.option.name

    def workload_signature(self) -> Tuple[str, int, str, int]:
        """The workload half of the point (what a speedup baseline shares)."""
        return signature_of(self)


#: design-matrix column of every design axis key (see
#: :data:`repro.core.batched.DESIGN_FIELDS`).
DESIGN_AXIS_KEYS: Tuple[str, ...] = GPU_AXIS_KEYS + ("cta_tile",)

#: one workload: (network, batch, passes, dtype_bytes).
Signature = Tuple[str, int, str, int]


def design_name(values: Sequence[float]) -> str:
    """The name of one design-matrix row: its non-unit multipliers and a
    non-128 CTA tile (``"num_sm=2,cta_tile=256"``), or ``"baseline"``."""
    parts = [f"{key}={value:g}" for key, value in zip(GPU_AXIS_KEYS, values)
             if value != 1.0]
    tile = int(values[-1])
    if tile != 128:
        parts.append(f"cta_tile={tile}")
    return ",".join(parts) if parts else "baseline"


def _canonical(signatures: Sequence[Signature], index: np.ndarray
               ) -> Tuple[Tuple[Signature, ...], np.ndarray]:
    """Drop repeated signatures, remapping ``index`` onto the first copy."""
    positions: Dict[Signature, int] = {}
    remap = np.array([positions.setdefault(signature, len(positions))
                      for signature in signatures], dtype=np.intp)
    return tuple(positions), remap[index] if len(remap) else index


class PointTable(Sequence):
    """Design points as arrays: a ``Sequence[DesignPoint]`` built on demand.

    ``design`` is the ``(D, 9)`` float64 design matrix (the eight resource
    multipliers, then the CTA tile; :data:`repro.core.batched.DESIGN_FIELDS`),
    ``signature_index`` the ``(D,)`` index of each row's workload into the
    distinct ``signatures``, and ``names`` the option names, or ``None`` when
    every name is derived from its design row (:func:`design_name`).
    Indexing or iterating builds :class:`DesignPoint` objects; the DSE
    pipeline itself reads only the arrays.
    """

    def __init__(self, design: np.ndarray, signature_index: np.ndarray,
                 signatures: Tuple[Signature, ...],
                 names: Optional[Tuple[str, ...]] = None) -> None:
        self.design = design
        self.signature_index = signature_index
        self.signatures = signatures
        self.names = names

    @classmethod
    def from_points(cls, points: Sequence[DesignPoint]) -> "PointTable":
        """The table of explicit design points (names kept)."""
        if isinstance(points, PointTable):
            return points
        points = tuple(points)
        positions: Dict[Signature, int] = {}
        index = np.fromiter(
            (positions.setdefault(signature_of(point), len(positions))
             for point in points), dtype=np.intp, count=len(points))
        return cls(design_matrix([point.option for point in points]), index,
                   tuple(positions), tuple(point.name for point in points))

    @classmethod
    def concat(cls, tables: Sequence["PointTable"]) -> "PointTable":
        """Rows of ``tables`` one after another (signatures merged)."""
        if not tables:
            return cls(np.empty((0, len(DESIGN_AXIS_KEYS))),
                       np.empty(0, dtype=np.intp), ())
        signatures = tuple(itertools.chain.from_iterable(
            table.signatures for table in tables))
        offsets = np.cumsum([0] + [len(table.signatures)
                                   for table in tables[:-1]])
        index = np.concatenate(
            [table.signature_index + offset
             for table, offset in zip(tables, offsets)]).astype(np.intp)
        names = None
        if any(table.names is not None for table in tables):
            names = tuple(table.name(i) for table in tables
                          for i in range(len(table)))
        signatures, index = _canonical(signatures, index)
        return cls(np.concatenate([table.design for table in tables]),
                   index, signatures, names)

    def __len__(self) -> int:
        return len(self.signature_index)

    def name(self, index: int) -> str:
        if self.names is not None:
            return self.names[index]
        return design_name(self.design[index].tolist())

    def take(self, rows: Sequence[int]) -> "PointTable":
        """The table of ``rows`` (row indices, in the order given)."""
        rows = np.asarray(rows, dtype=np.intp)
        names = (None if self.names is None
                 else tuple(self.names[i] for i in rows.tolist()))
        return PointTable(self.design[rows], self.signature_index[rows],
                          self.signatures, names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return next(iter(self.take([index])))

    def __iter__(self) -> Iterator[DesignPoint]:
        # one option object per distinct (name, design), shared across
        # workloads.
        options: Dict[object, DesignOption] = {}
        names = self.names
        for row, (design, signature) in enumerate(zip(
                _row_bytes(self.design), self.signature_index.tolist())):
            key = design if names is None else (names[row], design)
            option = options.get(key)
            if option is None:
                values = self.design[row].tolist()
                option = options[key] = DesignOption(
                    design_name(values) if names is None else names[row],
                    *values[:-1], cta_tile_hw=int(values[-1]))
            yield DesignPoint(option, *self.signatures[signature])

    def content_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, inverse)``: the first row of every distinct design
        point (equal design and workload, names ignored), in row order, and
        each row's position in ``first``."""
        positions: Dict[bytes, int] = {}
        inverse = np.fromiter(
            (positions.setdefault(row, len(positions)) for row in _row_bytes(
                np.column_stack([self.design, self.signature_index]))),
            dtype=np.intp, count=len(self))
        return np.unique(inverse, return_index=True)[1], inverse


def _row_bytes(matrix: np.ndarray) -> List[bytes]:
    """Each row of a 2-D array as little-endian float64 bytes."""
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    return matrix.view(np.dtype((np.void, matrix.itemsize
                                 * matrix.shape[1]))).ravel().tolist()


def _axes_table(axes: Sequence[Axis], base: DesignPoint,
                index: np.ndarray) -> PointTable:
    """The table whose row ``r`` takes value ``index[k, r]`` of axis ``k``
    (unswept fields keep ``base``'s workload, unit multipliers and its
    CTA tile)."""
    design = np.ones((index.shape[1], len(DESIGN_AXIS_KEYS)))
    design[:, -1] = base.option.cta_tile_hw
    workload = []
    for ax, values in zip(axes, index):
        if ax.key in DESIGN_AXIS_KEYS:
            design[:, DESIGN_AXIS_KEYS.index(ax.key)] = np.asarray(
                ax.values, dtype=np.float64)[values]
        else:
            workload.append((ax, values))
    if not workload:
        return PointTable(design, np.zeros(index.shape[1], dtype=np.intp),
                          (signature_of(base),))
    shape = [len(ax) for ax, _ in workload]
    codes, signature_index = np.unique(
        np.ravel_multi_index([values for _, values in workload], shape),
        return_inverse=True)
    base_fields = dict(zip(WORKLOAD_AXIS_KEYS, signature_of(base)))
    signatures = []
    for combo in zip(*np.unravel_index(codes, shape)):
        fields = dict(base_fields)
        for (ax, _), value in zip(workload, combo):
            fields[ax.key] = ax.values[int(value)]
        signatures.append(tuple(fields[key] for key in WORKLOAD_AXIS_KEYS))
    signatures, signature_index = _canonical(signatures,
                                             signature_index.ravel())
    return PointTable(design, signature_index, signatures)


class SearchSpace:
    """Base class of the composable space algebra (grid / zip / union)."""

    def table(self) -> PointTable:
        """The space's design points as arrays, in enumeration order."""
        raise NotImplementedError

    def points(self) -> Tuple[DesignPoint, ...]:
        return tuple(self.table())

    def __len__(self) -> int:
        return len(self.table())

    def size_bound(self) -> int:
        """An upper bound on ``len(self)``; grid, zip, explicit and union
        spaces compute it without enumerating a point."""
        return len(self)

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.table())

    def __or__(self, other: "SearchSpace") -> "SearchSpace":
        return union(self, other)


@dataclass(frozen=True)
class ExplicitSpace(SearchSpace):
    """A space enumerated point by point (e.g. the paper's Fig. 16a table)."""

    explicit: Tuple[DesignPoint, ...]

    def table(self) -> PointTable:
        return PointTable.from_points(self.explicit)

    def points(self) -> Tuple[DesignPoint, ...]:
        return self.explicit

    def __len__(self) -> int:
        return len(self.explicit)


@dataclass(frozen=True)
class GridSpace(SearchSpace):
    """Cartesian product of axes; point order follows axis declaration order."""

    axes: Tuple[Axis, ...]
    base: DesignPoint = field(default_factory=lambda: DesignPoint(
        option=DesignOption(name="baseline")))

    def __post_init__(self) -> None:
        _check_axes(self.axes)

    def table(self) -> PointTable:
        shape = tuple(len(ax) for ax in self.axes)
        return _axes_table(self.axes, self.base,
                           np.indices(shape).reshape(len(shape), -1))

    def points(self) -> Tuple[DesignPoint, ...]:
        return tuple(self.table())

    def __len__(self) -> int:
        size = 1
        for ax in self.axes:
            size *= len(ax)
        return size


@dataclass(frozen=True)
class ZipSpace(SearchSpace):
    """Aligned axes: the i-th point takes the i-th value of every axis."""

    axes: Tuple[Axis, ...]
    base: DesignPoint = field(default_factory=lambda: DesignPoint(
        option=DesignOption(name="baseline")))

    def __post_init__(self) -> None:
        _check_axes(self.axes)
        lengths = {len(ax) for ax in self.axes}
        if len(lengths) > 1:
            raise ValueError(
                f"zip axes must have equal lengths, got "
                f"{ {ax.key: len(ax) for ax in self.axes} }")

    def table(self) -> PointTable:
        return _axes_table(self.axes, self.base, np.broadcast_to(
            np.arange(len(self)), (len(self.axes), len(self))))

    def __len__(self) -> int:
        return len(self.axes[0]) if self.axes else 0


@dataclass(frozen=True)
class UnionSpace(SearchSpace):
    """Concatenation of spaces, first occurrence wins on content collisions."""

    spaces: Tuple[SearchSpace, ...]

    def table(self) -> PointTable:
        merged = PointTable.concat([space.table() for space in self.spaces])
        return merged.take(merged.content_index()[0])

    def size_bound(self) -> int:
        # the parts' sum: content dedupe is known only after enumeration.
        return sum(space.size_bound() for space in self.spaces)


def _check_axes(axes: Sequence[Axis]) -> None:
    if not axes:
        raise ValueError("a search space needs at least one axis")
    keys = [ax.key for ax in axes]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    if duplicates:
        raise ValueError(f"duplicate axes: {duplicates}")


#: the most design points a DSE request may plan: the enumeration and the
#: metric columns of a sweep take memory in proportion to its points.
MAX_SPACE_POINTS = 2 ** 20


AxesLike = Union[Mapping[str, Iterable[object]], Sequence[Axis]]


def _as_axes(axes: AxesLike) -> Tuple[Axis, ...]:
    if isinstance(axes, Mapping):
        return tuple(Axis(key, tuple(values)) for key, values in axes.items())
    return tuple(axes)


def _base_point(network: str, batch: int, passes: str,
                dtype_bytes: int) -> DesignPoint:
    return DesignPoint(option=DesignOption(name="baseline"), network=network,
                       batch=batch, passes=passes, dtype_bytes=dtype_bytes)


def grid(axes: AxesLike, *, network: str = "resnet152", batch: int = 256,
         passes: str = "forward", dtype_bytes: int = FP32_BYTES) -> GridSpace:
    """Cartesian-product space; keyword arguments set unswept workload defaults."""
    return GridSpace(axes=_as_axes(axes),
                     base=_base_point(network, batch, passes, dtype_bytes))


def zip_axes(axes: AxesLike, *, network: str = "resnet152", batch: int = 256,
             passes: str = "forward", dtype_bytes: int = FP32_BYTES) -> ZipSpace:
    """Aligned-axes space (one point per column, like the paper's table)."""
    return ZipSpace(axes=_as_axes(axes),
                    base=_base_point(network, batch, passes, dtype_bytes))


def union(*spaces: SearchSpace) -> UnionSpace:
    """Concatenate spaces (stable order, content-deduped)."""
    flat = []
    for space in spaces:
        if isinstance(space, UnionSpace):
            flat.extend(space.spaces)
        else:
            flat.append(space)
    return UnionSpace(spaces=tuple(flat))


def space_from_options(options: Sequence[DesignOption], *,
                       network: str = "resnet152", batch: int = 256,
                       passes: str = "forward",
                       dtype_bytes: int = FP32_BYTES) -> ExplicitSpace:
    """Wrap hand-picked design options (e.g. Fig. 16a) as an explicit space."""
    return ExplicitSpace(explicit=tuple(
        DesignPoint(option=option, network=network, batch=batch,
                    passes=passes, dtype_bytes=dtype_bytes)
        for option in options))


def default_space(networks: Sequence[str] = ("resnet152",),
                  batches: Sequence[int] = (256,),
                  passes: str = "forward",
                  axes: Optional[Sequence[Axis]] = None) -> GridSpace:
    """The one DSE space builder: the CLI, ``/v1/dse`` and ``dse`` experiment.

    Without ``axes`` it is the stock grid over the resources the paper's
    scaling study identifies as the levers that matter — SM count, MAC
    throughput, L2/DRAM bandwidth and the CTA tile — at 162 design points
    per (network, batch) combination; with ``axes`` those axes replace it.
    More than one network or batch appends a ``network`` / ``batch`` axis
    unless ``axes`` already sweeps that key; the first network and batch
    are the workload of every point that does not.
    """
    axes = list(axes) if axes is not None else [
        Axis("num_sm", (1.0, 2.0, 4.0)),
        Axis("mac_bw", (1.0, 2.0, 4.0)),
        Axis("l2_bw", (1.0, 1.5, 2.0)),
        Axis("dram_bw", (1.0, 1.5, 2.0)),
        Axis("cta_tile", (128, 256)),
    ]
    keys = {ax.key for ax in axes}
    if len(networks) > 1 and "network" not in keys:
        axes.append(Axis("network", networks))
    if len(batches) > 1 and "batch" not in keys:
        axes.append(Axis("batch", batches))
    return grid(axes, network=networks[0], batch=batches[0], passes=passes)


def parse_axis(text: str) -> Axis:
    """Parse a CLI axis spec ``KEY=V1,V2,...`` into an :class:`Axis`."""
    key, sep, values = text.partition("=")
    key = key.strip().lower()
    if not sep or not values.strip():
        raise ValueError(
            f"malformed axis {text!r}; expected KEY=V1,V2,... "
            f"with KEY in {list(AXIS_KEYS)}")
    raw: Tuple[object, ...] = tuple(
        part.strip() for part in values.split(",") if part.strip())
    if key in GPU_AXIS_KEYS:
        raw = tuple(float(part) for part in raw)
    elif key in ("cta_tile", "batch", "dtype_bytes"):
        raw = tuple(int(float(part)) for part in raw)
    return Axis(key, raw)
