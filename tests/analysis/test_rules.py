"""Known-good / known-bad fixture snippets for every rule."""

import pytest

SEL = "src/repro/selection/mod.py"
NN = "src/repro/nn/blocks.py"
OUT = "src/repro/data/mod.py"  # outside every scoped rule's modules


# -- NES001 determinism -------------------------------------------------------


class TestDeterminism:
    def test_global_np_random_call_flagged(self, run_rule):
        findings = run_rule(
            """
            import numpy as np
            x = np.random.rand(3)
            """,
            SEL,
            "NES001",
        )
        assert len(findings) == 1
        assert "global RNG state" in findings[0].message

    def test_unseeded_default_rng_flagged(self, run_rule):
        findings = run_rule(
            "import numpy as np\nrng = np.random.default_rng()\n",
            SEL,
            "NES001",
        )
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_clock_seeded_rng_flagged(self, run_rule):
        findings = run_rule(
            """
            import time
            import numpy as np
            rng = np.random.default_rng(int(time.time()))
            """,
            SEL,
            "NES001",
        )
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_stdlib_random_module_and_from_import_flagged(self, run_rule):
        findings = run_rule(
            """
            import random
            from random import shuffle
            random.random()
            shuffle([1, 2])
            """,
            SEL,
            "NES001",
        )
        assert len(findings) == 2

    def test_seeded_rng_and_generator_draws_clean(self, run_rule):
        findings = run_rule(
            """
            import numpy as np
            rng = np.random.default_rng(17)
            g = np.random.Generator(np.random.PCG64(3))
            y = rng.normal(size=4)
            """,
            SEL,
            "NES001",
        )
        assert findings == []

    def test_out_of_scope_module_not_flagged(self, run_rule):
        findings = run_rule(
            "import numpy as np\nx = np.random.rand(3)\n", OUT, "NES001"
        )
        assert findings == []


# -- NES002 precision drift ---------------------------------------------------


class TestPrecision:
    @pytest.mark.parametrize(
        "line",
        [
            "x = np.zeros(5)",
            "x = np.empty((2, 3))",
            "x = np.ones(4)",
            "x = np.full((2, 2), 0.0)",
            "x = np.eye(3)",
            "x = np.array([1.0, 2.0])",
            "x = np.array([[1, 2.5]])",
        ],
    )
    def test_implicit_float64_flagged(self, run_rule, line):
        findings = run_rule(f"import numpy as np\n{line}\n", SEL, "NES002")
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "x = np.zeros(5, dtype=np.float32)",
            "x = np.zeros(5, np.float32)",
            "x = np.empty((2, 3), dtype='f4')",
            "x = np.full((2, 2), 0.0, np.float32)",
            "x = np.array([1, 2])",
            "x = np.array(other)",
            "x = np.array([1.0], dtype=np.float64)",
        ],
    )
    def test_explicit_or_integer_clean(self, run_rule, line):
        findings = run_rule(f"import numpy as np\n{line}\n", SEL, "NES002")
        assert findings == []

    def test_smartssd_kernel_in_scope(self, run_rule):
        findings = run_rule(
            "import numpy as np\nx = np.zeros(5)\n",
            "src/repro/smartssd/kernel.py",
            "NES002",
        )
        assert len(findings) == 1

    def test_out_of_scope_module_not_flagged(self, run_rule):
        findings = run_rule(
            "import numpy as np\nx = np.zeros(5)\n", OUT, "NES002"
        )
        assert findings == []


# -- NES003 exception swallowing ----------------------------------------------


class TestBroadExcept:
    def test_bare_except_flagged(self, run_rule):
        findings = run_rule(
            """
            try:
                work()
            except:
                pass
            """,
            OUT,
            "NES003",
        )
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    def test_broad_except_swallowing_flagged(self, run_rule):
        # np.log computes, it does not log; a raise in a nested def does
        # not run when the handler does.
        for body in (
            "result = None",
            "return np.log(x)",
            "def retry():\n            raise",
        ):
            findings = run_rule(
                "def f(x):\n    try:\n        work()\n    except Exception:\n"
                f"        {body}\n",
                OUT,
                "NES003",
            )
            assert len(findings) == 1, body

    @pytest.mark.parametrize(
        "handler",
        [
            "except ValueError:\n    pass",
            "except Exception:\n    raise",
            "except Exception as exc:\n    log.warning('failed: %s', exc)",
            "except Exception:\n    traceback.print_exc()",
            "except Exception as exc:\n    logger.log(30, 'failed: %s', exc)",
        ],
    )
    def test_narrow_reraise_or_logging_clean(self, run_rule, handler):
        findings = run_rule(
            "try:\n    work()\n" + handler + "\n", OUT, "NES003"
        )
        assert findings == []


# -- NES006 with-managed spans ------------------------------------------------


class TestSpanWith:
    def test_bare_span_call_flagged(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def f():
                sp = obs.span("epoch")
                sp.set(x=1)
            """,
            OUT,
            "NES006",
        )
        assert len(findings) == 1
        assert "with" in findings[0].message

    def test_span_as_expression_statement_flagged(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def f():
                obs.span("epoch", epoch=0)
            """,
            OUT,
            "NES006",
        )
        assert len(findings) == 1

    def test_with_managed_spans_clean(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def f(tracer):
                with obs.span("epoch", epoch=0) as ep:
                    ep.set(loss=0.5)
                    with tracer.span("selection_round") as sel:
                        sel.set(selected=10)
            """,
            OUT,
            "NES006",
        )
        assert findings == []

    def test_return_position_exempt(self, run_rule):
        """Factories hand the un-entered span to the caller (obs.span itself)."""
        findings = run_rule(
            """
            def helper(tracer, name):
                return tracer.span(name)

            def pair(tracer):
                return tracer.span("a"), tracer.span("b")
            """,
            OUT,
            "NES006",
        )
        assert findings == []

    def test_span_wrapped_in_call_on_return_still_flagged(self, run_rule):
        findings = run_rule(
            """
            def f(tracer):
                return list(tracer.span("epoch"))
            """,
            OUT,
            "NES006",
        )
        assert len(findings) == 1

    def test_unrelated_span_free_code_clean(self, run_rule):
        findings = run_rule(
            """
            def spanner(x):
                return x.spanish()
            """,
            OUT,
            "NES006",
        )
        assert findings == []


# -- NES007 pool leases -------------------------------------------------------


class TestPoolLease:
    def test_unreleased_lease_flagged(self, run_rule):
        findings = run_rule(
            """
            def f(pool):
                lease = pool.lease((4, 4))
                lease.array[:] = 0
                return lease.array.sum()
            """,
            NN,
            "NES007",
        )
        assert len(findings) == 1
        assert "lease" in findings[0].message

    def test_dropped_lease_flagged(self, run_rule):
        findings = run_rule(
            """
            def f(pool):
                pool.lease((4, 4))
            """,
            NN,
            "NES007",
        )
        assert len(findings) == 1
        assert "dropped" in findings[0].message

    def test_with_managed_lease_clean(self, run_rule):
        findings = run_rule(
            """
            def f(pool):
                with pool.lease((4, 4)) as lease:
                    return lease.array.sum()
            """,
            NN,
            "NES007",
        )
        assert findings == []

    def test_finally_release_clean(self, run_rule):
        findings = run_rule(
            """
            def f(pool):
                lease = pool.lease((4, 4))
                try:
                    return lease.array.sum()
                finally:
                    lease.release()
            """,
            NN,
            "NES007",
        )
        assert findings == []

    def test_conditional_handed_off_release_clean(self, run_rule):
        # the hand-off shape: released in finally unless the
        # lease was handed off to the caller
        findings = run_rule(
            """
            def f(pool):
                lease = pool.lease((4, 4))
                handed_off = False
                try:
                    batch = build(lease.array)
                    handed_off = True
                    return batch, lease
                finally:
                    if not handed_off:
                        lease.release()
            """,
            NN,
            "NES007",
        )
        assert findings == []

    def test_nested_tuple_return_transfers_ownership(self, run_rule):
        findings = run_rule(
            """
            def gather(pool):
                x_lease = pool.lease((8,))
                y_lease = pool.lease((8,))
                batch = make_batch(x_lease.array, y_lease.array)
                return batch, (x_lease, y_lease)
            """,
            NN,
            "NES007",
        )
        assert findings == []

    def test_nested_function_not_double_reported(self, run_rule):
        findings = run_rule(
            """
            def outer(pool):
                def inner():
                    lease = pool.lease((4, 4))
                    return lease.array.sum()
                return inner
            """,
            NN,
            "NES007",
        )
        assert len(findings) == 1

    def test_self_attribute_transfers_ownership(self, run_rule):
        findings = run_rule(
            """
            class Layer:
                def forward(self, pool):
                    self._lease = pool.lease((4, 4))
                    return self._lease.array
            """,
            NN,
            "NES007",
        )
        assert findings == []

    def test_scratch_pool_chain_recognized(self, run_rule):
        # scratch_pool() is a call, so the creator chain's root is not a
        # dotted name — the attribute tail must still classify it
        findings = run_rule(
            """
            from repro.nn.scratch import scratch_pool

            def f():
                lease = scratch_pool().lease((4, 4))
                return lease.array.sum()
            """,
            NN,
            "NES007",
        )
        assert len(findings) == 1

    def test_reading_through_lease_is_not_a_transfer(self, run_rule):
        findings = run_rule(
            """
            def f(pool):
                lease = pool.lease((4, 4))
                return lease.array
            """,
            NN,
            "NES007",
        )
        assert len(findings) == 1


class TestMetricNames:
    PATH = "repro/anywhere/mod.py"

    def test_dynamic_name_flagged(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def record(mode):
                obs.metrics().counter("selection." + mode).inc()
                obs.metrics().gauge(f"selection.{mode}").set(1.0)
            """,
            self.PATH,
            "NES011",
        )
        assert len(findings) == 2
        assert all("not a string literal" in f.message for f in findings)

    def test_undotted_literal_flagged(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def record():
                obs.metrics().counter("rounds").inc()
            """,
            self.PATH,
            "NES011",
        )
        assert len(findings) == 1
        assert "not dotted-namespace" in findings[0].message

    def test_undeclared_literal_flagged(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def record():
                obs.metrics().gauge("rogue.series").set(0.1)
            """,
            self.PATH,
            "NES011",
        )
        assert len(findings) == 1
        assert "METRIC_TABLE" in findings[0].message

    def test_declared_literals_clean(self, run_rule):
        findings = run_rule(
            """
            from repro import obs

            def record():
                reg = obs.metrics()
                reg.counter("selection.rounds").inc()
                reg.counter("nn.loss.zero_weight_batches").inc()
            """,
            self.PATH,
            "NES011",
        )
        assert findings == []

    def test_unrelated_attribute_calls_ignored(self, run_rule):
        findings = run_rule(
            """
            import itertools

            def f(xs):
                return itertools.count(), max(xs)  # .count is not .counter
            """,
            self.PATH,
            "NES011",
        )
        assert findings == []
