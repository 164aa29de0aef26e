"""Symbol table + call graph (repro.analysis.callgraph)."""

import textwrap

from repro.analysis.callgraph import CallGraph, Project


def build(**modules):
    sources = {f"{name}.py": textwrap.dedent(source)
               for name, source in modules.items()}
    project = Project.from_sources(sources)
    return project, CallGraph(project)


def test_module_functions_and_classes_indexed():
    project, _ = build(mod="""
        def helper():
            pass

        class Thing:
            def method(self):
                pass
    """)
    assert "mod.py::helper" in project.functions
    assert "mod.py::Thing.method" in project.functions
    assert project.functions["mod.py::Thing.method"].cls == "Thing"


def test_local_call_edge():
    _, graph = build(mod="""
        def callee():
            pass

        def caller():
            callee()
    """)
    callees = {site.callee for site in graph.edges["mod.py::caller"]}
    assert "mod.py::callee" in callees


def test_self_method_call_resolves_through_class():
    _, graph = build(mod="""
        class Thing:
            def a(self):
                self.b()

            def b(self):
                pass
    """)
    callees = {site.callee for site in graph.edges["mod.py::Thing.a"]}
    assert "mod.py::Thing.b" in callees


def test_cross_module_import_call_edge():
    _, graph = build(
        helper="""
            def jitter():
                pass
        """,
        entry="""
            from helper import jitter

            def tick():
                jitter()
        """)
    callees = {site.callee for site in graph.edges["entry.py::tick"]}
    assert "helper.py::jitter" in callees


def test_policy_methods_are_entry_points():
    _, graph = build(mod="""
        class ForwardingPolicy:
            pass

        class Spray(ForwardingPolicy):
            def forward(self, packet, ports):
                return ports[0]
    """)
    assert "mod.py::Spray.forward" in graph.entry_points


def test_scheduled_callbacks_are_entry_points():
    _, graph = build(mod="""
        def on_timer():
            pass

        def setup(engine):
            engine.schedule(10, on_timer)
    """)
    assert "mod.py::on_timer" in graph.entry_points


def test_reachability_and_witness_path():
    project, graph = build(mod="""
        class ForwardingPolicy:
            pass

        class Spray(ForwardingPolicy):
            def forward(self, packet, ports):
                return helper(ports)

        def helper(ports):
            return deeper(ports)

        def deeper(ports):
            return ports[0]
    """)
    parents = graph.reachable()
    assert "mod.py::deeper" in parents
    chain = graph.witness_path(parents, "mod.py::deeper")
    assert chain[0] == "mod.py::Spray.forward"
    assert chain[-1] == "mod.py::deeper"


def test_unrelated_function_not_reachable():
    _, graph = build(mod="""
        class ForwardingPolicy:
            pass

        class Spray(ForwardingPolicy):
            def forward(self, packet, ports):
                return ports[0]

        def offline_report():
            pass
    """)
    assert "mod.py::offline_report" not in graph.reachable()


def test_syntax_error_module_skipped():
    project = Project.from_sources({
        "ok.py": "def fine():\n    pass\n",
        "broken.py": "def broken(:\n",
    })
    assert "ok.py::fine" in project.functions
    assert "broken.py" not in project.modules
