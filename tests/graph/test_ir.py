"""Graph IR: construction, validation diagnostics, signatures, binding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import ELEMENTWISE_FNS, Graph, OP_REGISTRY, get_op


def _chain(n: int = 64) -> Graph:
    g = Graph(name="chain")
    x = g.add_input("x", "fp16", (n,))
    (a,) = g.add_node("a", "elementwise", [x], {"fn": "abs"})
    (b,) = g.add_node("b", "scan", [a], {"s": 16})
    g.set_outputs([b])
    return g


class TestConstruction:
    def test_valid_chain_validates(self):
        specs = _chain().validate()
        assert specs["a.values"].dtype == "fp16"
        # scan accumulates fp16 into fp32
        assert specs["b.values"].dtype == "fp32"

    def test_toposort_is_dependency_ordered(self):
        g = _chain()
        names = [n.name for n in g.toposort()]
        assert names.index("a") < names.index("b")

    def test_unknown_op_kind_rejected_eagerly(self):
        g = Graph(name="g")
        g.add_input("x", "fp16", (32,))
        with pytest.raises(ConfigError, match="unknown operator"):
            g.add_node("a", "nope", ["x"], {})

    def test_unknown_param_rejected_eagerly(self):
        g = Graph(name="g")
        g.add_input("x", "fp16", (32,))
        with pytest.raises(ConfigError, match="param"):
            g.add_node("a", "elementwise", ["x"], {"fn": "abs", "bogus": 1})

    def test_missing_required_param_rejected(self):
        g = Graph(name="g")
        g.add_input("x", "fp16", (32,))
        with pytest.raises(ConfigError, match="fn"):
            g.add_node("a", "elementwise", ["x"], {})

    def test_duplicate_names_rejected(self):
        g = Graph(name="g")
        g.add_input("x", "fp16", (32,))
        with pytest.raises(ConfigError, match="duplicate"):
            g.add_input("x", "fp16", (32,))

    def test_dotted_input_name_rejected(self):
        g = Graph(name="g")
        with pytest.raises(ConfigError):
            g.add_input("a.b", "fp16", (32,))


class TestValidationErrors:
    def test_cycle_is_config_error(self):
        g = Graph(name="cyclic")
        g.add_node("a", "elementwise", ["b.values"], {"fn": "abs"})
        g.add_node("b", "elementwise", ["a.values"], {"fn": "abs"})
        g.set_outputs(["a.values"])
        with pytest.raises(ConfigError, match="cycle"):
            g.validate()

    def test_dangling_edge_is_config_error(self):
        g = Graph(name="dangling")
        g.add_input("x", "fp16", (32,))
        g.add_node("a", "elementwise", ["ghost"], {"fn": "abs"})
        g.set_outputs(["a.values"])
        with pytest.raises(ConfigError, match="ghost"):
            g.validate()

    def test_dtype_mismatch_is_config_error(self):
        g = Graph(name="mistyped")
        g.add_input("x", "fp32", (32,))
        g.add_node("a", "scan", ["x"], {"s": 16})
        g.set_outputs(["a.values"])
        with pytest.raises(ConfigError):
            g.validate()

    def test_mismatched_split_flag_dtype_is_config_error(self):
        g = Graph(name="badflags")
        g.add_input("x", "fp16", (32,))
        g.add_input("flags", "fp16", (32,))
        g.add_node("a", "split", ["x", "flags"], {"s": 16})
        g.set_outputs(["a.values"])
        with pytest.raises(ConfigError):
            g.validate()

    def test_empty_graph_is_config_error(self):
        g = Graph(name="empty")
        with pytest.raises(ConfigError, match="no nodes"):
            g.validate()

    def test_no_outputs_is_config_error(self):
        g = _chain()
        g.set_outputs([])
        with pytest.raises(ConfigError, match="outputs"):
            g.validate()

    def test_unknown_output_edge_is_config_error(self):
        g = _chain()
        g.set_outputs(["b.ghost"])
        with pytest.raises(ConfigError):
            g.validate()

    def test_wrong_arity_is_config_error(self):
        g = Graph(name="arity")
        g.add_input("x", "fp16", (32,))
        g.add_node("a", "split", ["x"], {"s": 16})
        g.set_outputs(["a.values"])
        with pytest.raises(ConfigError):
            g.validate()

    def test_topk_without_a_tile_is_config_error(self):
        # topk has no input-sized tile rule, so s=None would reach the
        # device driver unresolved; validation refuses it by name
        g = Graph(name="topk")
        g.add_input("x", "fp16", (64,))
        g.add_node("t", "topk", ["x"], {"k": 8, "s": None, "method": "quickselect"})
        g.set_outputs(["t.values"])
        with pytest.raises(ConfigError, match="topk s"):
            g.validate()

    def test_data_dependent_edge_cannot_feed_a_node(self):
        # compress output length is only known at run time; a downstream
        # node cannot be lowered against it
        from repro.graph import GraphRunner
        from repro.hw.config import toy_config

        g = Graph(name="deep")
        g.add_input("x", "fp16", (64,))
        g.add_input("flags", "int8", (64,))
        (c,) = g.add_node("c", "compress", ["x", "flags"], {"s": 16})
        g.add_node("e", "elementwise", [c], {"fn": "abs"})
        g.set_outputs(["e.values"])
        g.validate()  # structurally fine
        with pytest.raises(ConfigError, match="data-dependent"):
            GraphRunner(toy_config()).lower(g)


class TestSignatures:
    def test_equal_graphs_share_a_signature(self):
        assert _chain().signature() == _chain().signature()

    def test_shape_changes_the_signature(self):
        assert _chain(64).signature() != _chain(128).signature()

    def test_runtime_params_do_not_change_top_p_signature(self):
        def sampler(p, theta):
            g = Graph(name="s")
            g.add_input("probs", "fp16", (64,))
            g.add_input("ids", "int32", (64,))
            g.add_node(
                "t",
                "top_p_sample",
                ["probs", "ids"],
                {"p": p, "theta": theta, "s": 16},
            )
            g.set_outputs(["t.token"])
            return g

        # p and theta are runtime-only: one captured program serves all
        assert (
            sampler(0.9, 0.1).signature() == sampler(0.5, 0.7).signature()
        )


class TestBinding:
    def test_bind_checks_dtype(self):
        g = _chain()
        with pytest.raises(ConfigError):
            g.bind({"x": np.zeros(64, dtype=np.float32)})

    def test_bind_checks_shape(self):
        g = _chain()
        with pytest.raises(ConfigError):
            g.bind({"x": np.zeros(65, dtype=np.float16)})

    def test_bind_accepts_sequence_in_declaration_order(self):
        g = _chain()
        bound = g.bind([np.zeros(64, dtype=np.float16)])
        assert set(bound) == {"x"}

    def test_registry_covers_the_op_zoo(self):
        expected = {
            "scan",
            "elementwise",
            "split",
            "compress",
            "radix_sort",
            "topk",
            "top_p_sample",
        }
        assert expected <= set(OP_REGISTRY)
        for kind in expected:
            assert get_op(kind).kind == kind
        assert {"negate", "double", "abs", "relu"} <= set(ELEMENTWISE_FNS)
