import pytest

from cuspinv import equivalence, quadrature

#: the per-process level tables of the fixed sample grids and of the chart
#: windows, and the chart windows' per-monomial columns, each an lru_cache
TABLES = (
    equivalence._passage_table,
    equivalence._report_table,
    equivalence._verdict_table,
    quadrature._chart_table,
    quadrature._chart_moments,
)


@pytest.fixture(autouse=True)
def cleared_tables():
    """Every test starts with empty tables, so that what it counts does not
    depend on which tests ran before it."""
    for table in TABLES:
        table.cache_clear()
