"""Efficient-dominating-set decision procedure, exact oracle, and audit harness."""
