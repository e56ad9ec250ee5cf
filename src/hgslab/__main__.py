from hgslab.cli import main
raise SystemExit(main())
