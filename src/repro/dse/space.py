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

Spaces are frozen value objects; :meth:`SearchSpace.points` enumerates their
design points in a deterministic order, which is what makes seeded random
search reproducible and the result store's content keys stable.  Every point
is lowered onto concrete hardware through the existing
:meth:`DesignOption.apply` path, so a DSE point and a hand-built Fig. 16
column can never drift apart.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, Mapping, Optional, Sequence,
                    Tuple, Union)

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

    def descriptor(self) -> Dict[str, object]:
        """Canonical plain-data identity of the point (name excluded).

        Two points with equal descriptors produce identical evaluations
        and share a result-store key (which hashes the same fields).
        """
        design = {key: getattr(self.option, key) for key in GPU_AXIS_KEYS}
        design["cta_tile"] = self.option.cta_tile_hw
        return {
            "design": design,
            "network": self.network,
            "batch": self.batch,
            "passes": self.passes,
            "dtype_bytes": self.dtype_bytes,
        }

    def point_hash(self) -> str:
        """Stable content hash of the descriptor (name-insensitive)."""
        payload = json.dumps(self.descriptor(), sort_keys=True)
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def workload_signature(self) -> Tuple[str, int, str, int]:
        """The workload half of the point (what a speedup baseline shares)."""
        return signature_of(self)

    def baseline_point(self) -> "DesignPoint":
        """The identity-design point of the same workload (speedup = 1)."""
        return DesignPoint(option=DesignOption(name="baseline"),
                           network=self.network, batch=self.batch,
                           passes=self.passes, dtype_bytes=self.dtype_bytes)


#: DesignOption field defaults, for the fast grid-enumeration path below.
_OPTION_DEFAULTS: Dict[str, float] = {key: 1.0 for key in GPU_AXIS_KEYS}


def _grid_points(axes: Sequence[Axis], base: DesignPoint
                 ) -> Tuple[DesignPoint, ...]:
    """Fast cartesian enumeration, equivalent to ``_point_from_values``.

    Axis normalization (``Axis.__post_init__``) already guarantees every
    value is validated and canonical — GPU multipliers are positive floats,
    networks lowercase, passes normalized — so the per-point re-validation
    of the dataclass constructors is redundant; points are assembled
    directly (name fragments precomputed per axis value), which is what
    keeps enumerating a multi-thousand-point grid off a sweep's hot path.
    """
    keys = [ax.key for ax in axes]
    # (field key, combo index, {value: "key=value" fragment or None}).
    gpu_axes = [
        (key, keys.index(key),
         {value: (f"{key}={value:g}" if value != 1.0 else None)
          for value in axes[keys.index(key)].values})
        for key in GPU_AXIS_KEYS if key in keys]
    cta_index = keys.index("cta_tile") if "cta_tile" in keys else None
    base_cta = base.option.cta_tile_hw
    option_indices = [index for _, index, _ in gpu_axes]
    if cta_index is not None:
        option_indices.append(cta_index)
    workload = {key: (keys.index(key) if key in keys else None)
                for key in WORKLOAD_AXIS_KEYS}
    base_workload = {key: getattr(base, key) for key in WORKLOAD_AXIS_KEYS}

    cta_fragments = ({value: (f"cta_tile={value}" if value != 128 else None)
                      for value in axes[cta_index].values}
                     if cta_index is not None else None)

    if all(index is None for index in workload.values()):
        # Design-only grid (the common sweep shape): every combo is a
        # distinct option, so the option cache below would never hit, and
        # the workload fields are one constant dict — build each point with
        # a single dict merge and a wholesale __dict__ assignment.
        points = []
        for combo in itertools.product(*(ax.values for ax in axes)):
            fields = dict(_OPTION_DEFAULTS)
            parts = []
            for key, index, fragments in gpu_axes:
                value = combo[index]
                fields[key] = value
                fragment = fragments[value]
                if fragment is not None:
                    parts.append(fragment)
            if cta_fragments is not None:
                cta = combo[cta_index]
                fragment = cta_fragments[cta]
                if fragment is not None:
                    parts.append(fragment)
            else:
                cta = base_cta
            fields["name"] = ",".join(parts) if parts else "baseline"
            fields["cta_tile_hw"] = cta
            option = object.__new__(DesignOption)
            object.__setattr__(option, "__dict__", fields)
            point = object.__new__(DesignPoint)
            object.__setattr__(point, "__dict__",
                               {"option": option, **base_workload})
            points.append(point)
        return tuple(points)

    # One option object per distinct design, shared across workload combos —
    # downstream consumers (key templating, batched evaluation) memoize per
    # option object, so sharing turns those caches into near-pure hits.
    option_cache: Dict[Tuple, DesignOption] = {}
    points = []
    for combo in itertools.product(*(ax.values for ax in axes)):
        option_key = tuple(combo[index] for index in option_indices)
        option = option_cache.get(option_key)
        if option is None:
            fields = dict(_OPTION_DEFAULTS)
            parts = []
            for key, index, fragments in gpu_axes:
                value = combo[index]
                fields[key] = value
                fragment = fragments[value]
                if fragment is not None:
                    parts.append(fragment)
            cta = combo[cta_index] if cta_index is not None else base_cta
            if cta != 128:
                parts.append(f"cta_tile={cta}")
            fields["name"] = ",".join(parts) if parts else "baseline"
            fields["cta_tile_hw"] = cta
            option = object.__new__(DesignOption)
            option.__dict__.update(fields)
            option_cache[option_key] = option
        point = object.__new__(DesignPoint)
        point.__dict__["option"] = option
        for key, index in workload.items():
            point.__dict__[key] = (combo[index] if index is not None
                                   else base_workload[key])
        points.append(point)
    return tuple(points)


def _point_from_values(values: Mapping[str, object], base: DesignPoint) -> DesignPoint:
    """Build a design point from per-axis values over ``base``'s defaults."""
    gpu_kwargs = {key: float(values[key]) for key in GPU_AXIS_KEYS if key in values}
    cta_tile = int(values.get("cta_tile", base.option.cta_tile_hw))
    design_parts = [f"{key}={value:g}" for key, value in gpu_kwargs.items()
                    if value != 1.0]
    if cta_tile != 128:
        design_parts.append(f"cta_tile={cta_tile}")
    name = ",".join(design_parts) if design_parts else "baseline"
    option = DesignOption(name=name, cta_tile_hw=cta_tile, **gpu_kwargs)
    return DesignPoint(
        option=option,
        network=str(values.get("network", base.network)),
        batch=int(values.get("batch", base.batch)),
        passes=str(values.get("passes", base.passes)),
        dtype_bytes=int(values.get("dtype_bytes", base.dtype_bytes)),
    )


class SearchSpace:
    """Base class of the composable space algebra (grid / zip / union)."""

    def points(self) -> Tuple[DesignPoint, ...]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.points())

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.points())

    def __or__(self, other: "SearchSpace") -> "SearchSpace":
        return union(self, other)


@dataclass(frozen=True)
class ExplicitSpace(SearchSpace):
    """A space enumerated point by point (e.g. the paper's Fig. 16a table)."""

    explicit: Tuple[DesignPoint, ...]

    def points(self) -> Tuple[DesignPoint, ...]:
        return self.explicit


@dataclass(frozen=True)
class GridSpace(SearchSpace):
    """Cartesian product of axes; point order follows axis declaration order."""

    axes: Tuple[Axis, ...]
    base: DesignPoint = field(default_factory=lambda: DesignPoint(
        option=DesignOption(name="baseline")))

    def __post_init__(self) -> None:
        _check_axes(self.axes)

    def points(self) -> Tuple[DesignPoint, ...]:
        return _grid_points(self.axes, self.base)

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

    def points(self) -> Tuple[DesignPoint, ...]:
        keys = [ax.key for ax in self.axes]
        return tuple(
            _point_from_values(dict(zip(keys, combo)), self.base)
            for combo in zip(*(ax.values for ax in self.axes)))

    def __len__(self) -> int:
        return len(self.axes[0]) if self.axes else 0


@dataclass(frozen=True)
class UnionSpace(SearchSpace):
    """Concatenation of spaces, first occurrence wins on content collisions."""

    spaces: Tuple[SearchSpace, ...]

    def points(self) -> Tuple[DesignPoint, ...]:
        seen = set()
        merged = []
        for space in self.spaces:
            for point in space.points():
                key = point.point_hash()
                if key not in seen:
                    seen.add(key)
                    merged.append(point)
        return tuple(merged)


def _check_axes(axes: Sequence[Axis]) -> None:
    if not axes:
        raise ValueError("a search space needs at least one axis")
    keys = [ax.key for ax in axes]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    if duplicates:
        raise ValueError(f"duplicate axes: {duplicates}")


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
