"""JSON request bodies <-> typed API requests, with structured 400 errors.

The service exposes exactly the request types the library already has
(:class:`EstimateRequest`, :class:`SweepRequest`, :class:`ValidateRequest`,
:class:`DseRequest`, :class:`ExperimentRequest`); this module is the thin,
strict deserialization layer in front of them.  The schema is *derived* from
those dataclasses, never restated: :data:`ROUTES` maps each POST route to its
request class plus the fields a body may not set (``options`` for
``experiment``; ``space`` and ``store_path`` for ``dse`` — the server never
writes a store).  Every other dataclass field is a body field: its
annotation picks the type check, an omitted field takes the dataclass
default and a field without one is required.  ``dse`` bodies describe their
space with the parameters of :func:`repro.dse.space.default_space`
(``networks``, ``batches``, ``passes``, ``axes``), the same builder the CLI
calls.  Strict means:

* unknown body fields are rejected (a typo'd ``"bacth"`` is a 400, not a
  silently-default batch);
* JSON ``null`` is accepted only where the field is ``Optional``; anywhere
  else it is a 400, never "the default";
* the non-JSON ``NaN`` / ``Infinity`` / ``-Infinity`` literals are rejected;
* unknown network / GPU / experiment ids are rejected *at parse time*, so
  the client gets a 400 naming the id instead of a 500 from deep inside the
  executor;
* every rejection raises :class:`BadRequest`, which the app maps onto an
  HTTP 400 whose body has the same structured shape as a
  ``Report(kind="error")``.

Each parse also produces the request's *content key*: a stable SHA-1 over
the route and every body-settable field of the constructed request (plus,
for ``dse``, the space arguments and its final axes).  The key is what the
server-wide coalescing cache dedupes on — two bodies that normalize to the
same request (``"AlexNet"`` vs ``"alexnet"``, reordered fields, default vs
explicit values) share one execution and one memo slot, the request-level
analogue of the session's ``structural_key``-based work-unit keys.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, Mapping, Sequence, Tuple

from ..api.requests import (DseRequest, EstimateRequest, ExperimentRequest,
                            Request, SweepRequest, ValidateRequest)
from ..dse.space import AXIS_KEYS, Axis, default_space
from ..experiments.registry import available_experiments
from ..gpu.devices import get_device
from ..networks.registry import available_networks


class BadRequest(ValueError):
    """A request body the service refuses: malformed, unknown ids, bad types."""


@dataclass(frozen=True)
class ParsedRequest:
    """One deserialized request plus its coalescing identity."""

    #: the route's typed request, ready for ``Session.run``.
    request: Request
    #: stable content key of the normalized request (sha1 hex digest).
    key: str
    #: run asynchronously as a job instead of inline (body field ``"job"``).
    as_job: bool
    #: record a deep execution trace on the job (body field ``"trace"``);
    #: only valid together with ``"job": true``.
    with_trace: bool = False


#: route -> (request class, dataclass fields a body may not set).
ROUTES = {
    "estimate": (EstimateRequest, ()),
    "sweep": (SweepRequest, ()),
    "validate": (ValidateRequest, ()),
    "experiment": (ExperimentRequest, ("options",)),
    "dse": (DseRequest, ("space", "store_path")),
}


# ----------------------------------------------------------------------
# Field checks: one per annotation, each given a non-null JSON value
# (every failure is a BadRequest naming the field)
# ----------------------------------------------------------------------

def _bool(value: object, field: str, route: str) -> bool:
    if not isinstance(value, bool):
        raise BadRequest(f"{route}: field {field!r} must be a boolean, "
                         f"got {value!r}")
    return value


def _int(value: object, field: str, route: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{route}: field {field!r} must be an integer, "
                         f"got {value!r}")
    return value


def _str(value: object, field: str, route: str) -> str:
    if not isinstance(value, str):
        raise BadRequest(f"{route}: field {field!r} must be a string, "
                         f"got {value!r}")
    return value


def _str_list(value: object, field: str, route: str) -> Tuple[str, ...]:
    if isinstance(value, str):
        value = [value]
    if (not isinstance(value, Sequence)
            or not all(isinstance(item, str) for item in value)
            or not value):
        raise BadRequest(f"{route}: field {field!r} must be a non-empty "
                         f"list of strings, got {value!r}")
    return tuple(value)


def _int_list(value: object, field: str, route: str) -> Tuple[int, ...]:
    if isinstance(value, bool) or isinstance(value, int):
        value = [value]
    if (not isinstance(value, Sequence) or not value
            or not all(isinstance(item, int) and not isinstance(item, bool)
                       for item in value)):
        raise BadRequest(f"{route}: field {field!r} must be a non-empty "
                         f"list of integers, got {value!r}")
    return tuple(value)


def _axes(value: object, field: str, route: str) -> Tuple[Axis, ...]:
    if not isinstance(value, Mapping) or not value:
        raise BadRequest(
            f"{route}: field {field!r} must be a non-empty object mapping "
            f"axis keys (one of {list(AXIS_KEYS)}) to value lists")
    axes = []
    for key, values in value.items():
        if isinstance(values, (str, int, float)):
            values = [values]
        if not isinstance(values, Sequence) or not values:
            raise BadRequest(f"{route}: axis {key!r} must map to a non-empty "
                             f"list of values")
        try:
            axes.append(Axis(str(key).strip().lower(), tuple(values)))
        except (ValueError, TypeError, OverflowError) as exc:
            raise BadRequest(f"{route}: bad axis {key!r}: {exc}") from exc
        if axes[-1].key == "network":
            for name in axes[-1].values:
                _check_network(name, route)
    return tuple(axes)


#: field annotation (``Optional[...]`` stripped) -> check.
_CHECKS: Dict[str, Callable[[object, str, str], object]] = {
    "bool": _bool, "int": _int, "str": _str,
    "Names": _str_list, "Sequence[str]": _str_list,
    "Tuple[str, ...]": _str_list,
    "Sequence[int]": _int_list, "Tuple[int, ...]": _int_list,
    "Sequence[Axis]": _axes,
}


# ----------------------------------------------------------------------
# Registry validation (400 for unknown ids, never a deep 500)
# ----------------------------------------------------------------------

def _check_network(name: str, route: str) -> str:
    key = name.strip().lower()
    known = available_networks()
    if key not in known:
        raise BadRequest(f"{route}: unknown network {name!r}; "
                         f"known networks: {known}")
    return key


def _check_gpu(name: str, route: str) -> str:
    key = name.strip().lower()
    try:
        get_device(key)
    except KeyError as exc:
        raise BadRequest(f"{route}: {exc.args[0]}") from None
    return key


def _check_experiment(name: str, route: str) -> str:
    key = name.strip().lower()
    known = available_experiments()
    if key not in known:
        raise BadRequest(f"{route}: unknown experiment {name!r}; "
                         f"known experiments: {known}")
    return key


# ----------------------------------------------------------------------
# The route table, compiled once at import
# ----------------------------------------------------------------------

#: one body field: (name, check, JSON null accepted, default or MISSING).
_Field = Tuple[str, Callable[[object, str, str], object], bool, object]

#: body fields named after a registry resolve each id through its check.
_REGISTRY_CHECKS = {
    "network": _check_network, "networks": _check_network,
    "gpu": _check_gpu, "gpus": _check_gpu,
    "experiment": _check_experiment,
}


def _field(name: str, annotation: str, default: object) -> _Field:
    nullable = annotation.startswith("Optional[")
    check = _CHECKS[annotation[len("Optional["):-1] if nullable
                    else annotation]
    return name, check, nullable, default


def _compile(cls: type, hidden: Sequence[str]):
    """(class, request fields, space fields, accepted body fields incl.
    ``job``/``trace``) of one :data:`ROUTES` entry."""
    request_fields = tuple(
        _field(f.name, f.type, f.default) for f in fields(cls)
        if f.name not in hidden)
    space_fields: Tuple[_Field, ...] = ()
    if "space" in hidden:
        space_fields = tuple(
            _field(name, param.annotation, param.default) for name, param
            in inspect.signature(default_space).parameters.items())
    accepted = {name for name, *_ in request_fields + space_fields}
    return cls, request_fields, space_fields, accepted | {"job", "trace"}


_COMPILED = {route: _compile(cls, hidden)
             for route, (cls, hidden) in ROUTES.items()}


def _values(body: Mapping[str, object], specs: Sequence[_Field],
            route: str) -> Dict[str, object]:
    """Checked values of the body fields ``specs`` names that are present."""
    values = {}
    for name, check, nullable, default in specs:
        if name not in body:
            if default is MISSING:
                raise BadRequest(f"{route}: field {name!r} is required")
            continue
        value = body[name]
        if value is not None:
            value = check(value, name, route)
            registry = _REGISTRY_CHECKS.get(name)
            if registry is not None:
                value = (registry(value, route) if isinstance(value, str)
                         else tuple(registry(item, route) for item in value))
        elif not nullable:
            raise BadRequest(f"{route}: field {name!r} must not be null")
        values[name] = value
    return values


def _wrap_construction(route: str, build):
    """Constructor ``ValueError``/``TypeError`` (bad batch, ...) -> 400."""
    try:
        return build()
    except BadRequest:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise BadRequest(f"{route}: {exc}") from exc


def _job_flags(body: Mapping[str, object], route: str) -> Tuple[bool, bool]:
    """The shared ``"job"``/``"trace"`` execution flags of every route.

    A deep trace is recorded per *job* (attached to its poll payload), so
    ``"trace": true`` on a synchronous request is a 400 — synchronous
    responses already carry the per-phase ``meta["timing"]`` breakdown.
    """
    as_job = _bool(body.get("job", False), "job", route)
    with_trace = _bool(body.get("trace", False), "trace", route)
    if with_trace and not as_job:
        raise BadRequest(
            f"{route}: \"trace\" requires \"job\": true — synchronous "
            f"responses carry meta[\"timing\"] instead; submit a job and "
            f"poll /v1/jobs/{{id}} for the chrome trace")
    return as_job, with_trace


def _parse(route: str, body: Mapping[str, object]) -> ParsedRequest:
    cls, request_fields, space_fields, accepted = _COMPILED[route]
    unknown = body.keys() - accepted
    if unknown:
        raise BadRequest(
            f"{route}: unknown field(s) {sorted(unknown)}; "
            f"accepted fields are {sorted(accepted - {'job', 'trace'})} "
            f"(plus \"job\" and \"trace\")")
    kwargs = _values(body, request_fields, route)
    if space_fields:
        space_args = {name: default for name, _, _, default in space_fields}
        space_args.update(_values(body, space_fields, route))
        kwargs["space"] = _wrap_construction(
            route, lambda: default_space(**space_args))
    request = _wrap_construction(route, lambda: cls(**kwargs))
    canonical = {"route": route}
    for name, *_ in request_fields:
        canonical[name] = getattr(request, name)
    if space_fields:
        canonical.update(space_args)
        if space_args["axes"] is not None:
            canonical["axes"] = {ax.key: list(ax.values)
                                 for ax in kwargs["space"].axes}
    return ParsedRequest(request, _content_key(canonical),
                         *_job_flags(body, route))


def _reject_constant(literal: str) -> None:
    raise ValueError(f"{literal} is not a JSON number")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_body(route: str, raw: bytes) -> ParsedRequest:
    """Decode and parse one POST body for ``route``; failures are 400s."""
    if route not in ROUTES:
        raise BadRequest(f"unknown request route {route!r}; "
                         f"expected one of {sorted(ROUTES)}")
    if not raw:
        body: object = {}
    else:
        try:
            body = _DECODER.decode(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # decode errors are ValueErrors
            raise BadRequest(
                f"{route}: request body is not valid JSON: {exc}") from exc
    if not isinstance(body, Mapping):
        raise BadRequest(f"{route}: request body must be a JSON object, "
                         f"got {type(body).__name__}")
    return _parse(route, body)


def _content_key(canonical: Mapping[str, object]) -> str:
    """Stable coalescing key: sha1 of the sorted canonical payload."""
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()
