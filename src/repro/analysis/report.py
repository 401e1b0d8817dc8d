"""Markdown experiment reports: paper artifact vs measured, in one file.

Used by ``benchmarks/run_experiments.py`` to write
``experiment_report.md`` (its default output).  Each section pairs the paper's reported
values with this reproduction's measurements and the shape criterion
that must hold.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


class ExperimentReport:
    """Accumulates sections and renders a single markdown document."""

    def __init__(self, title: str) -> None:
        self.title = title
        self._lines: List[str] = [f"# {title}", ""]

    def section(self, heading: str, body: str = "") -> None:
        self._lines.append(f"## {heading}")
        self._lines.append("")
        if body:
            self._lines.append(body)
            self._lines.append("")

    def paragraph(self, text: str) -> None:
        self._lines.append(text)
        self._lines.append("")

    def table(self, headers: Sequence[str], rows: Sequence[Sequence[Any]],
              caption: Optional[str] = None) -> None:
        if caption:
            self._lines.append(f"*{caption}*")
            self._lines.append("")
        header_line = "| " + " | ".join(str(h) for h in headers) + " |"
        separator = "|" + "|".join("---" for _ in headers) + "|"
        self._lines.append(header_line)
        self._lines.append(separator)
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row width {len(row)} != header width {len(headers)}")
            self._lines.append(
                "| " + " | ".join(str(cell) for cell in row) + " |")
        self._lines.append("")

    def code_block(self, text: str, language: str = "") -> None:
        self._lines.append(f"```{language}")
        self._lines.append(text.rstrip("\n"))
        self._lines.append("```")
        self._lines.append("")

    def shape_check(self, description: str, holds: bool) -> None:
        mark = "PASS" if holds else "FAIL"
        self._lines.append(f"- **[{mark}]** {description}")

    def end_checks(self) -> None:
        self._lines.append("")

    def render(self) -> str:
        return "\n".join(self._lines).rstrip("\n") + "\n"

    def save(self, path: str) -> str:
        text = self.render()
        with open(path, "w") as handle:
            handle.write(text)
        return path
