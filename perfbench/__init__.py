"""Seeded end-to-end benchmark of the fever_ray sketch engine (see README.md)."""
