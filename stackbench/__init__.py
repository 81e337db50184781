"""The repo benchmark; see README.md."""
