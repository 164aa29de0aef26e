"""End hosts: NIC, stack composition (transport + Vertigo shims)."""
