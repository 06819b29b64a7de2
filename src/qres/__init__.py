"""Exact classification and resolution of diagonal cyclic quotient cones."""
