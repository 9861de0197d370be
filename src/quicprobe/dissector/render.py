"""Text rendering of dissection trees for bug reports."""

from __future__ import annotations

from .dissect import DissectedNode

_MAX_INLINE_HEX = 32


def _format_value(node: DissectedNode) -> str:
    if node.error is not None:
        return f"! {node.error}"
    if node.value is None:
        return ""
    if isinstance(node.value, int):
        return f"= {node.value} (0x{node.value:x})"
    text = node.value
    if len(text) > 2 * _MAX_INLINE_HEX:
        text = text[: 2 * _MAX_INLINE_HEX] + f"... ({len(node.raw)} bytes)"
    return f"= {text}" if text else "= (empty)"


def render_text(node: DissectedNode, indent: int = 0) -> str:
    lines = [f"{'  ' * indent}{node.name} [{node.start}:{node.end}] {_format_value(node)}".rstrip()]
    for child in node.children:
        lines.append(render_text(child, indent + 1))
    return "\n".join(lines)
