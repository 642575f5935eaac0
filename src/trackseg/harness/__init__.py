"""Orchestration: configuration, persistence, metrics, rendering, CLI."""
