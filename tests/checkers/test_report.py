"""Unit tests for warnings and reports."""

from repro.checkers.report import Report, Warning


def warning(checker="io", kind="at-exit", site=1, func="main",
            state="Open", type_name="FileWriter", line=3):
    return Warning(
        checker=checker,
        kind=kind,
        site=site,
        type_name=type_name,
        state=state,
        func=func,
        line=line,
    )


def test_report_add_and_len():
    report = Report()
    report.add(warning())
    assert len(report) == 1


def test_report_dedupes_identical_warnings():
    report = Report()
    report.add(warning())
    report.add(warning())
    assert len(report) == 1


def test_report_add_does_not_scan_the_warnings_it_holds():
    """Dedup is a set probe: adding n distinct warnings compares none of
    them with each other (the list scan compared n^2 / 2 pairs)."""
    compared = []

    class Counted(Warning):
        __slots__ = ()
        __hash__ = Warning.__hash__

        def __eq__(self, other):
            compared.append(1)
            return Warning.__eq__(self, other)

    def counted(site):
        return Counted(checker="io", kind="at-exit", site=site,
                       type_name="FileWriter", state="Open", func="main",
                       line=3)

    report = Report()
    for site in range(300):
        report.add(counted(site))
    assert len(report) == 300 and len(compared) == 0
    for site in range(300):
        report.add(counted(site))  # every one already present
    assert len(report) == 300 and len(compared) <= 300
    assert [w.site for w in report.warnings] == list(range(300))


def test_report_by_checker():
    report = Report()
    report.add(warning(checker="io"))
    report.add(warning(checker="socket", site=2))
    assert len(report.by_checker("io")) == 1
    assert len(report.by_checker("socket")) == 1
    assert report.by_checker("lock") == []


def test_report_sites():
    report = Report()
    report.add(warning(site=1))
    report.add(warning(site=2, checker="socket"))
    assert report.sites() == {1, 2}
    assert report.sites("io") == {1}


def test_warning_describe_mentions_location():
    text = warning().describe()
    assert "main" in text and "FileWriter" in text and "Open" in text


def test_error_transition_describe_differs():
    leak = warning(kind="at-exit").describe()
    error = warning(kind="error-transition").describe()
    assert leak != error
    assert "error state" in error


def test_summary_lists_all():
    report = Report()
    report.add(warning(site=1))
    report.add(warning(site=2))
    summary = report.summary()
    assert summary.startswith("2 warning(s)")
    assert summary.count("FileWriter") == 2
