import pytest

from cuspinv import equivalence, quadrature

#: the per-process tables of the fixed sample grids, of a verdict's branch
#: values and levels and of the chart windows, each an lru_cache; the grids
#: among them keep their monomials' values
TABLES = (
    equivalence._passage_table,
    equivalence._report_table,
    equivalence._verdict_levels,
    quadrature._chart_table,
)


@pytest.fixture(autouse=True)
def cleared_tables():
    """Every test starts with empty tables, so that what it counts does not
    depend on which tests ran before it."""
    for table in TABLES:
        table.cache_clear()
