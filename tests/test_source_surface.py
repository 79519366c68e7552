"""Every top-level function, class and method of ``src/tamecert`` is reached
from the package itself, apart from a listed few that a test needs.

A name counts as reached when it occurs as a name or an attribute anywhere in
``src/`` outside its own definition.  Methods are matched by name alone, so a
method shares its callers with every other definition of that name.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamecert"

# Reached only from tests: each entry names the acceptance criterion or the
# oracle test that needs it.
ALLOWED = {
    "cli.report_payload": "criterion 14 and test_payload_digests hash the report payload",
    "envelope.cos_sample": "test_envelope's cos idempotent-law tests sample the cos system",
    "envelope.cos_target_times": "criterion 07 lands the cos fiber on target values",
    "envelope.compose": "test_envelope.TestCompose checks the composition laws",
    "envelope.decompose_minimal": "criterion 07 decomposes a minimal-ideal element",
    "envelope.IdealDecomposition.recompose": "criterion 07 recomposes the decomposition",
    "exactarith.RotationNumber.quotients": "test_exactarith.test_quotients_exhausted",
    "exactarith.RotationNumber.convergents": "test_exactarith.test_convergents_golden",
    "linear.matrix_limit": "criterion 10 takes scalar and diagonal matrix-sequence limits",
    "linear.PartialLinearMap.domain_dim": "criterion 10 reads the domain of the scalar limit",
    "linear.partial_compose": "criterion 10 checks the partial-linear semigroup law",
    "linear.affine_catalog_element": "criterion 10 pins affine limits by three points",
    "order.MonotoneStepMap.one_sided_limits": "test_order's corridor_scan oracle reads "
                                               "the one-sided values of the pins",
    "rank.value_instance": "test_rank's oracle tests rank plain value maps",
    "rank.RankTrace.verify_witnesses": "criterion 04 rechecks the rank witnesses",
    "systems.CosSystem.generator_point": "criterion 07 starts from the orbit generator",
    "systems.CosSystem.fiber_point": "criterion 13 builds points of the exotic fiber",
    "systems.asymptotic_defect": "criterion 13 measures asymptotic pairs",
    "tameness.exhaustive_max_independence": "criterion 05 checks the search against it",
}


def _names(node: ast.AST) -> Counter:
    """Every identifier under ``node`` that is a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreached() -> list[str]:
    """Qualified names of the definitions (outside ``_kernels``, dunders
    excepted) whose name occurs nowhere in the package but inside themselves."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    total = sum(map(_names, trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)] \
                if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if total[name] == _names(item)[name]:
                    owner = [node.name] if item is not node else []
                    out.append(".".join([path.stem, *owner, name]))
    return out


def test_every_definition_is_reached_from_the_package():
    unreached = set(_unreached())
    assert sorted(unreached - ALLOWED.keys()) == []
    # an entry whose name gained a caller, or is gone, leaves the list
    assert sorted(ALLOWED.keys() - unreached) == []
