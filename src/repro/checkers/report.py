"""Warning and report types (phase 3 output)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Warning:
    """One static warning about an allocation site.

    ``kind`` is ``"error-transition"`` (the object reached an FSM error
    state, e.g. write-after-close) or ``"at-exit"`` (the object can reach
    program exit in a non-accepting state, e.g. a leak).  ``witness`` is a
    concrete input assignment satisfying the path constraint of one
    witnessing path (``("main::x = 2", ...)``); it is informational and
    excluded from warning identity.
    """

    checker: str
    kind: str
    site: int
    type_name: str
    state: str
    func: str
    line: int
    witness: tuple = field(default=(), compare=False)

    def describe(self) -> str:
        """Human-readable one-line description, including the witness."""
        if self.kind == "at-exit":
            text = (
                f"[{self.checker}] {self.type_name} allocated in {self.func}"
                f" (line {self.line}, site {self.site}) can reach program"
                f" exit in state {self.state!r}"
            )
        else:
            text = (
                f"[{self.checker}] {self.type_name} allocated in {self.func}"
                f" (line {self.line}, site {self.site}) can reach error state"
                f" {self.state!r}"
            )
        if self.witness:
            text += f" [e.g. when {', '.join(self.witness)}]"
        return text


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One lint finding (:mod:`repro.sa.lint`): a local, syntactic or
    CFG-level observation, cheaper and chattier than a checker
    :class:`Warning` -- no path feasibility is consulted.

    ``kind`` is a stable machine-readable category
    (``use-before-init``, ``unreachable-code``, ``constant-branch``,
    ``escape-without-close``, ``dead-store``, ``shadowed-variable``,
    ``unresolved-name``, ``ambiguous-import``, ``tainted-sink``,
    ``lock-order``); ``subject`` names the variable, symbol or
    condition concerned.  ``file`` is the source file for multi-file
    runs ("" for single-source linting, which keeps the legacy output
    format byte-identical).
    """

    kind: str
    func: str
    line: int
    subject: str
    message: str
    file: str = ""

    def describe(self) -> str:
        where = f"{self.file}:{self.line}" if self.file else f"line {self.line}"
        return f"{where}: [{self.kind}] {self.func}: {self.message}"

    def sort_key(self) -> tuple:
        """Deterministic output order: (file, line, kind, symbol, ...).

        Keyed on position before provenance so multi-file ``--lint``
        output is byte-stable regardless of file discovery order.
        """
        return (self.file, self.line, self.kind, self.subject, self.func,
                self.message)


@dataclass
class LintReport:
    """All lint diagnostics for one program, in deterministic order."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def sorted(self) -> list[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def kinds(self) -> set[str]:
        return {d.kind for d in self.diagnostics}

    def by_kind(self, kind: str) -> list[Diagnostic]:
        return [d for d in self.sorted() if d.kind == kind]

    def __len__(self) -> int:
        return len(self.diagnostics)

    def summary(self) -> str:
        lines = [f"{len(self.diagnostics)} lint diagnostic(s)"]
        lines.extend(d.describe() for d in self.sorted())
        return "\n".join(lines)


@dataclass
class Report:
    """All warnings from one Grapple run, deduplicated per site/state."""

    #: First-seen order.
    warnings: list[Warning] = field(default_factory=list)
    _seen: set = field(default_factory=set, init=False, repr=False,
                       compare=False)

    def __post_init__(self) -> None:
        self._seen.update(self.warnings)

    def add(self, warning: Warning) -> None:
        """Add a warning unless an identical one is already present."""
        if warning not in self._seen:
            self._seen.add(warning)
            self.warnings.append(warning)

    def by_checker(self, checker: str) -> list[Warning]:
        """All warnings emitted by one named checker."""
        return [w for w in self.warnings if w.checker == checker]

    def sites(self, checker: str | None = None) -> set[int]:
        """Allocation sites with warnings (optionally for one checker)."""
        return {
            w.site
            for w in self.warnings
            if checker is None or w.checker == checker
        }

    def __len__(self) -> int:
        return len(self.warnings)

    def summary(self) -> str:
        """Count line followed by one description per warning."""
        lines = [f"{len(self.warnings)} warning(s)"]
        lines.extend(w.describe() for w in self.warnings)
        return "\n".join(lines)
