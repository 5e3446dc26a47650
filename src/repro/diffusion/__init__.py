"""IMDPP diffusion engines: local numpy reference + Spark sample shards."""
