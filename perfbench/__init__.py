"""Repository benchmark (see run.py)."""
