"""Analytic model of nested entanglement-purification quantum repeaters.

The package computes achievable fidelities, success probabilities, parallel
resources and build times for repeater chains that alternate noisy pair
connection with noisy two-pair purification, and ships an exact small-system
density-matrix simulation that every closed-form map is checked against.
"""
