"""End-to-end benchmark of the Paraleon reproduction (see README.md)."""
