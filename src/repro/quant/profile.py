"""Per-layer precision profiles (uniform INT2/4/8 and mixed recipes).

The paper's headline scaling axis: temporal-unary execution gets
*cheaper* as precision drops (a 2s-unary burst lasts ``ceil(|w|/2)``
cycles, so the worst case is 64 cycles at INT8, 4 at INT4 and 1 at
INT2) while the binary CMAC's cycle cost is precision-independent.  A
:class:`PrecisionProfile` names the integer format of every layer in a
network so the whole inference stack — quantization, lowering, batched
and sharded execution, benchmarks — can run uniform low-precision
networks *and* the standard edge-quantization recipe: first and last
layer at INT8 (input fidelity / logit resolution), interior layers at
INT4 or INT2.

Profiles are resolved by :func:`precision_profile`, which accepts an
existing profile, a registry name (``"mixed"``), or anything
:func:`~repro.utils.intrange.int_spec` understands (``8``, ``"INT4"``,
an :class:`~repro.utils.intrange.IntSpec`) for uniform profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PrecisionError
from repro.utils.intrange import INT2, INT4, INT8, IntSpec, int_spec


@dataclass(frozen=True)
class PrecisionProfile:
    """Integer format of every layer in a network.

    Attributes:
        name: profile identifier (registry key for the named recipes).
        interior: format of the interior (hidden) layers.
        first: optional override for the first layer (None = interior).
        last: optional override for the last layer (None = interior).
    """

    name: str
    interior: IntSpec
    first: IntSpec | None = None
    last: IntSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PrecisionError("profile name must be non-empty")
        object.__setattr__(self, "interior", int_spec(self.interior))
        for edge in ("first", "last"):
            spec = getattr(self, edge)
            if spec is not None:
                spec = int_spec(spec)
                # Normalise "override equals interior" to no override,
                # so uniform profiles compare equal however spelled.
                object.__setattr__(
                    self, edge, None if spec == self.interior else spec
                )

    @property
    def is_uniform(self) -> bool:
        return self.first is None and self.last is None

    @property
    def widest(self) -> IntSpec:
        """The widest member format — what the MAC array must be
        provisioned for."""
        members = [self.interior]
        if self.first is not None:
            members.append(self.first)
        if self.last is not None:
            members.append(self.last)
        return max(members, key=lambda spec: spec.width)

    def spec_for(self, index: int, count: int) -> IntSpec:
        """Format of layer ``index`` in a ``count``-layer network.

        A single-layer network is both first and last; the last-layer
        override wins (both are INT8 in the standard mixed recipes, so
        the distinction only matters for custom profiles).
        """
        if count < 1:
            raise PrecisionError("layer count must be >= 1")
        if not 0 <= index < count:
            raise PrecisionError(
                f"layer index {index} outside [0, {count})"
            )
        if index == count - 1 and self.last is not None:
            return self.last
        if index == 0 and self.first is not None:
            return self.first
        return self.interior

    def describe(self) -> str:
        """``"INT4"`` for uniform profiles, ``"INT8/INT4/INT8"``
        (first/interior/last) for mixed ones."""
        if self.is_uniform:
            return self.interior.name
        first = (self.first or self.interior).name
        last = (self.last or self.interior).name
        return f"{first}/{self.interior.name}/{last}"


#: Uniform profiles for the paper's three precisions.
UNIFORM_INT8 = PrecisionProfile("int8", INT8)
UNIFORM_INT4 = PrecisionProfile("int4", INT4)
UNIFORM_INT2 = PrecisionProfile("int2", INT2)

#: The standard edge-quantization recipe: INT8 first/last layer (input
#: fidelity and logit resolution), INT4 interior.
MIXED_EDGE = PrecisionProfile("mixed", INT4, first=INT8, last=INT8)

#: The aggressive variant: INT2 interior under INT8 edges.
MIXED_INT2 = PrecisionProfile("mixed_int2", INT2, first=INT8, last=INT8)

#: Named profiles accepted anywhere a precision is configured (the CLI's
#: ``--precision`` choices).
PROFILES: dict[str, PrecisionProfile] = {
    profile.name: profile
    for profile in (
        UNIFORM_INT8,
        UNIFORM_INT4,
        UNIFORM_INT2,
        MIXED_EDGE,
        MIXED_INT2,
    )
}


def uniform_profile(precision: "int | str | IntSpec") -> PrecisionProfile:
    """The uniform profile for one format (``INT4`` -> ``"int4"``)."""
    spec = int_spec(precision)
    named = PROFILES.get(spec.name.lower())
    if named is not None and named.interior == spec:
        return named
    return PrecisionProfile(spec.name.lower(), spec)


def precision_profile(
    precision: "PrecisionProfile | IntSpec | int | str",
) -> PrecisionProfile:
    """Resolve anything precision-shaped into a profile.

    Accepts a :class:`PrecisionProfile`, a registry name (``"mixed"``,
    case-insensitive), or a uniform format as an
    :class:`~repro.utils.intrange.IntSpec` / width / ``"INT8"`` name.
    """
    if isinstance(precision, PrecisionProfile):
        return precision
    if isinstance(precision, str):
        named = PROFILES.get(precision.strip().lower())
        if named is not None:
            return named
    return uniform_profile(precision)
