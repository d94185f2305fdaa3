"""The end-to-end benchmark's Python side: building, the seeded corpus and
edit stream, the verdict checker, the front-door clients and the metrics."""
