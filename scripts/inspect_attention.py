"""Print the attention mixing weights for one dialogue.

Trains briefly on the synthetic corpus (or loads a checkpoint), then
shows, for each utterance, how much of its re-weighted embedding comes
from every utterance in the window. Rows sum to 1.

    python3 scripts/inspect_attention.py
    python3 scripts/inspect_attention.py --checkpoint out/checkpoint.bin --vocab out/vocab.txt
"""

import argparse
import sys

from dialoglow import autodiff as ad
from dialoglow import cli
from dialoglow import embeddings as emb
from dialoglow import model as m
from dialoglow import preprocess as pp
from dialoglow import synthetic
from dialoglow import train as tr


def attention_matrix(texts, vocab, params):
    u = m.encode_sentence([vocab.encode(pp.prepare(t)) for t in texts], params)
    return ad.attention_weights(ad.attention_scores(u.data))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkpoint", help="trained sa-bilstm model (default: quick synthetic fit)")
    ap.add_argument("--vocab", help="vocab file (default: next to the checkpoint)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64 - 1:  # seed and the table's seed + 1 key Philox generators
        ap.error(f"--seed must be in [0, 2**64 - 1), got {args.seed}")

    if args.checkpoint:
        try:  # as eval and predict do, refuse a vocab the checkpoint was not trained with
            _, vocab, cfg, params = cli._load_model(args)
        except (cli.CliError, tr.CheckpointError) as exc:
            sys.exit(f"error: {exc}")
        if cfg.variant != "sa-bilstm":
            sys.exit(f"error: {args.checkpoint} holds a {cfg.variant} model, which has no attention layer")
    else:
        ds = synthetic.build(n_dialogues=20, seed=args.seed)
        vocab = tr.vocab_from_dataset(ds)
        cfg = m.ModelConfig(embed_dim=16, hidden_size=8, window_size=8,
                            fc_dims=(16,), variant="sa-bilstm")
        table = emb.random_table(vocab, cfg.embed_dim, seed=args.seed + 1)
        tcfg = tr.TrainConfig(epochs=40, lr0=0.02, decay=0.995, dropout=0.0,
                              seed=args.seed)
        print("fitting a small model on the synthetic corpus...")
        result = tr.train(ds, vocab, table, cfg, tcfg, val_ds=ds)
        cfg, params = tr.params_from_checkpoint(result.last)

    dialogue = [
        "well i feel okay today",
        "so glad really",
        "um gloomy now honestly",
        "livid right now",
    ]
    weights = attention_matrix(dialogue, vocab, params)

    width = max(len(t) for t in dialogue)
    header = " " * (width + 2) + "  ".join(f"{f'u{j}':>4}" for j in range(len(dialogue)))
    print(header)
    for i, text in enumerate(dialogue):
        row = "  ".join(f"{w:.2f}" for w in weights[i])
        print(f"{text:<{width}}  {row}")
    print("\neach row: softmax of scaled dot products against every utterance")


if __name__ == "__main__":
    main()
