"""Network substrate: packets, queues, links, switches, and topologies.

This package is the repository's stand-in for the paper's OMNeT++/INET
substrate: store-and-forward output-queued switches connected by links
with serialization and propagation delay, byte-bounded per-port buffers,
and multipath route tables for leaf-spine and fat-tree topologies.
"""
