"""Overfit the attentive model on the synthetic keyword corpus.

A quick end-to-end smoke run: every utterance carries one label-revealing
token, so accuracy should climb toward 1.0 within a minute. Useful after
any change to the encoder, attention, loss, or optimizer.

    python3 scripts/overfit_synthetic.py --epochs 60
"""

import argparse
import time

from dialoglow import embeddings as emb
from dialoglow import metrics as mx
from dialoglow import model as m
from dialoglow import synthetic
from dialoglow import train as tr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dialogues", type=int, default=20)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--lr", type=float, default=0.02)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--variant", choices=m.VARIANTS, default="sa-bilstm")
    ap.add_argument("--hidden-size", type=int, default=8)
    ap.add_argument("--embed-dim", type=int, default=16)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64 - 1:  # seed and the table's seed + 1 key Philox generators
        ap.error(f"--seed must be in [0, 2**64 - 1), got {args.seed}")
    if args.dialogues < 1:
        ap.error(f"--dialogues must be at least 1, got {args.dialogues}")
    try:
        cfg = m.ModelConfig(
            embed_dim=args.embed_dim,
            hidden_size=args.hidden_size,
            window_size=8,
            fc_dims=(16,),
            variant=args.variant,
        )
        tcfg = tr.TrainConfig(
            epochs=args.epochs, lr0=args.lr, decay=0.995, dropout=0.0,
            seed=args.seed,
        )
    except ValueError as exc:
        ap.error(str(exc))

    ds = synthetic.build(n_dialogues=args.dialogues, seed=args.seed)
    vocab = tr.vocab_from_dataset(ds)
    table = emb.random_table(vocab, cfg.embed_dim, seed=args.seed + 1)

    started = time.monotonic()

    def show(row):
        if row["epoch"] % 5 == 0 or row["epoch"] == args.epochs - 1:
            print(
                f"epoch {row['epoch']:>3}  loss {row['train_loss']:.4f}  "
                f"WA {mx.pct(row['val_wa'])}  UWA {mx.pct(row['val_uwa'])}"
            )

    result = tr.train(ds, vocab, table, cfg, tcfg, val_ds=ds, on_epoch=show)
    _, params = tr.params_from_checkpoint(result.last)
    report = tr.evaluate_dataset(ds, vocab, params, cfg)
    print(f"\nfinal training-set scores after {time.monotonic() - started:.1f}s:")
    print(report.table())


if __name__ == "__main__":
    main()
