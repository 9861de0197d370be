"""Declarative packet dissection from per-version protocol descriptions."""

from functools import lru_cache
from importlib import resources

from .description import (
    DescriptionError,
    FieldRef,
    FieldSpec,
    ProtocolDescription,
    load_description,
)
from .dissect import DissectedNode, coverage_ok, dissect
from .render import render_text


@lru_cache(maxsize=None)
def quic_v1_description() -> ProtocolDescription:
    """The shipped version 1 description (the grammar's normative example)."""
    text = resources.files(__package__).joinpath("quic_v1.yaml").read_text()
    return load_description(text)


__all__ = [
    "DescriptionError",
    "DissectedNode",
    "FieldRef",
    "FieldSpec",
    "ProtocolDescription",
    "coverage_ok",
    "dissect",
    "load_description",
    "quic_v1_description",
    "render_text",
]
