"""ProjectIndex mechanics: imports, dispatch, spawn edges, reachability.

Each test builds a tiny in-memory project (dict of path -> source) and
asserts on the assembled :class:`~repro.analysis.project.ProjectIndex`
directly — the NES009 rule behaviour built on top is covered by
``test_races.py``.
"""

import textwrap

from repro.analysis.project import (
    ProjectIndex,
    build_file_index,
    module_name_for_path,
)


def build(files: dict) -> ProjectIndex:
    indexes = []
    for path, source in files.items():
        index = build_file_index(textwrap.dedent(source), path)
        assert index is not None, f"{path} failed to parse"
        indexes.append(index)
    return ProjectIndex(indexes)


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for_path("src/repro/selection/craig.py") == (
            "repro.selection.craig"
        )

    def test_package_init_is_the_package(self):
        assert module_name_for_path("src/repro/parallel/__init__.py") == (
            "repro.parallel"
        )


class TestDispatch:
    def test_self_call_resolves_within_class(self):
        index = build({
            "src/repro/a.py": """
            class C:
                def outer(self):
                    self.inner()

                def inner(self):
                    pass
            """,
        })
        (site,) = index.functions["repro.a.C.outer"].calls
        assert index.resolve(site.target) == frozenset({"repro.a.C.inner"})

    def test_constructor_typed_local(self):
        index = build({
            "src/repro/a.py": """
            class Widget:
                def spin(self):
                    pass

            def use():
                w = Widget()
                w.spin()
            """,
        })
        targets = {
            callee
            for site in index.functions["repro.a.use"].calls
            for callee in index.resolve(site.target)
        }
        assert "repro.a.Widget.spin" in targets

    def test_annotation_typed_parameter(self):
        index = build({
            "src/repro/a.py": """
            class Widget:
                def spin(self):
                    pass

            def use(w: Widget):
                w.spin()
            """,
        })
        (site,) = index.functions["repro.a.use"].calls
        assert index.resolve(site.target) == frozenset({"repro.a.Widget.spin"})

    def test_attribute_type_inferred_from_init(self):
        index = build({
            "src/repro/a.py": """
            class Widget:
                def spin(self):
                    pass

            class Holder:
                def __init__(self):
                    self.widget = Widget()

                def go(self):
                    self.widget.spin()
            """,
        })
        (site,) = index.functions["repro.a.Holder.go"].calls
        assert index.resolve(site.target) == frozenset({"repro.a.Widget.spin"})

    def test_return_annotation_chains_method_call(self):
        index = build({
            "src/repro/a.py": """
            class Widget:
                def spin(self):
                    pass

            def make() -> Widget:
                return Widget()

            def use():
                make().spin()
            """,
        })
        targets = {
            callee
            for site in index.functions["repro.a.use"].calls
            for callee in index.resolve(site.target)
        }
        assert "repro.a.Widget.spin" in targets

    def test_cross_module_import_resolves(self):
        index = build({
            "src/repro/impl.py": """
            def work():
                pass
            """,
            "src/repro/use.py": """
            from repro.impl import work

            def call():
                work()
            """,
        })
        (site,) = index.functions["repro.use.call"].calls
        assert index.resolve(site.target) == frozenset({"repro.impl.work"})

    def test_package_reexport_chased(self):
        index = build({
            "src/repro/pkg/__init__.py": """
            from repro.pkg.impl import work
            """,
            "src/repro/pkg/impl.py": """
            def work():
                pass
            """,
            "src/repro/use.py": """
            from repro.pkg import work

            def call():
                work()
            """,
        })
        (site,) = index.functions["repro.use.call"].calls
        assert index.resolve(site.target) == frozenset({"repro.pkg.impl.work"})

    def test_cha_stoplist_blocks_builtin_method_names(self):
        # d.get() on an untyped receiver must NOT dispatch into a project
        # class that happens to define get — dict/queue protocol names
        # are stop-listed for class-hierarchy fallback.
        index = build({
            "src/repro/a.py": """
            class Cacheish:
                def get(self, key):
                    self.hits = 1

            def use(d):
                d.get("k")
            """,
        })
        (site,) = index.functions["repro.a.use"].calls
        assert index.resolve(site.target) == frozenset()

    def test_typed_receiver_beats_stoplist(self):
        # the stoplist only gates the *fallback*: an annotated receiver
        # still dispatches precisely, even for a stop-listed name
        index = build({
            "src/repro/a.py": """
            class Cacheish:
                def get(self, key):
                    self.hits = 1

            def use(c: Cacheish):
                c.get("k")
            """,
        })
        (site,) = index.functions["repro.a.use"].calls
        assert index.resolve(site.target) == frozenset({"repro.a.Cacheish.get"})

    def test_forward_reference_public_first_layout(self):
        # caller defined before its callee in the same module (the
        # repo's "public API first" layout) must still resolve
        index = build({
            "src/repro/a.py": """
            def public():
                return _helper()

            def _helper():
                return 1
            """,
        })
        (site,) = index.functions["repro.a.public"].calls
        assert index.resolve(site.target) == frozenset({"repro.a._helper"})


class TestSpawnsAndReachability:
    THREADED = {
        "src/repro/a.py": """
        import threading

        class Round:
            def launch(self):
                t = threading.Thread(target=self._run)
                t.start()

            def _run(self):
                self._step()

            def _step(self):
                pass
        """,
    }

    def test_thread_target_is_a_spawn_site(self):
        index = build(self.THREADED)
        spawns = {
            callee for _, site in index.spawn_sites()
            for callee in index.resolve(site.target)
        }
        assert spawns == {"repro.a.Round._run"}

    def test_worker_closure_follows_call_edges(self):
        index = build(self.THREADED)
        worker = index.worker_reachable()
        assert "repro.a.Round._run" in worker
        assert "repro.a.Round._step" in worker
        assert "repro.a.Round.launch" not in worker

    def test_worker_provenance_names_the_spawner(self):
        index = build(self.THREADED)
        worker = index.worker_reachable()
        assert "repro.a.Round.launch" in worker["repro.a.Round._run"]

    def test_pool_submission_spawns_its_callable(self):
        index = build({
            "src/repro/a.py": """
            def work(row):
                return row

            def fan_out(pool, rows):
                return pool.map(work, rows)
            """,
        })
        spawns = {
            callee for _, site in index.spawn_sites()
            for callee in index.resolve(site.target)
        }
        assert spawns == {"repro.a.work"}

    def test_main_reachability_excludes_spawn_only_functions(self):
        index = build(self.THREADED)
        main = index.main_reachable()
        assert "repro.a.Round.launch" in main
        # _run is only ever entered via the thread spawn
        assert "repro.a.Round._run" not in main
