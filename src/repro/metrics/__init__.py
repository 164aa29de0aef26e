"""Measurement: per-flow / per-query records and summary statistics."""
