"""The spatial-store benchmark (see run.py)."""
