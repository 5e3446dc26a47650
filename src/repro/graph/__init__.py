"""Graph primitives over the social network of a ``ModelData``."""
