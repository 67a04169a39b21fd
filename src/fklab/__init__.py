"""Desk-scale simulator and verifier for the single-step history-state
quantum advantage protocol on ZZ lattices."""
