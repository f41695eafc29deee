"""dicut: bipartitions of directed graphs maximizing the smaller directional cut.

Public names resolve lazily (PEP 562): ``import dicut`` loads no submodule,
and ``dicut.run`` imports ``dicut.pipeline`` on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

CONCLUDING_FAMILIES = ("k33_oriented", "k33_plus_3regular", "k55_mixed")
# generator family -> the GadgetSpec params its builder reads; held here, not
# in dicut.generators, so that `dicut gen`'s choices load no generator
FAMILIES: dict[str, tuple[str, ...]] = {
    "d1_star_triangle": ("n",),
    "eulerian_complete": ("q",),
    "lower_bound": ("d", "k"),
    **{family: ("n", "patched") for family in CONCLUDING_FAMILIES},
    "random_min_outdeg": ("n", "d", "extra", "seed"),
}

_EXPORTS = {
    "core": ("Bipartition", "CutStats", "Digraph", "GraphInputError",
             "StructuralDiagnostic", "cut_stats", "read_edge_list",
             "write_edge_list"),
    "decomposition": ("StarDecomposition", "maximize_free_vertices",
                      "maximum_matching", "star_decompose", "tight_components"),
    "generators": ("GadgetSpec", "concluding_gadgets", "d1_gadget",
                   "eulerian_complete", "lower_bound_gadget", "random_min_outdeg"),
    "oracle": ("OracleResult", "exact_judicious"),
    "pipeline": ("PartitionResult", "PipelineConfig", "guarantee_target",
                 "local_search", "run"),
    "samplers": ("SampleOutcome", "quarter_partition",
                 "second_moment_partition", "star_bisection"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
