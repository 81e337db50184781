"""In-memory relational database substrate.

The package recommendation model of Deng, Fan and Geerts assumes a relational
database ``D`` of items.  This subpackage provides that substrate: schemas,
typed relations, databases, a small relational-algebra layer used by the query
evaluators, and CSV import/export helpers.
"""

from repro.relational.errors import (
    IntegrityError,
    ReproError,
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.database import AppliedDelta, Database, DatabaseSnapshot, Relation
from repro.relational.statistics import RelationStatistics
from repro.relational.algebra import (
    cartesian_product,
    difference,
    intersection,
    natural_join,
    project,
    rename,
    select,
    union,
)

__all__ = [
    "AppliedDelta",
    "Attribute",
    "Database",
    "DatabaseSchema",
    "DatabaseSnapshot",
    "IntegrityError",
    "Relation",
    "RelationSchema",
    "RelationStatistics",
    "ReproError",
    "SchemaError",
    "UnknownAttributeError",
    "UnknownRelationError",
    "cartesian_product",
    "difference",
    "intersection",
    "natural_join",
    "project",
    "rename",
    "select",
    "union",
]
